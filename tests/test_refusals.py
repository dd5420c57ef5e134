"""Each input check of the library, met once: the error's type and message.

These are the refusals that no other test reaches; `tools/raise_coverage.py`
lists any `raise` that the tests leave unrun.
"""

import re

import numpy as np
import pytest

from cit import (
    DegenerateMarginal,
    EmptyMatrix,
    FiniteAlphabet,
    JointPMF,
    KernelInvalid,
    LemmaViolation,
    OverlappingAxes,
    TensorPMF,
    UnknownAxis,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    mutual_information,
)
from cit import chains, hashing, protocols, simulate, sources, structure, wyner
from cit.chains import AuxiliaryChain, DeterministicChain
from cit.sources import ConstraintViolation

A2 = FiniteAlphabet.of_size(2)
HALVES = np.full((2, 2), 0.5)  # one round of two values, uniform on each parent symbol


def raises(kind, message):
    return pytest.raises(kind, match=f"^{re.escape(message)}$")


def tensor3() -> TensorPMF:
    return TensorPMF(("x", "y", "u"), (A2, A2, A2), np.full((2, 2, 2), 0.125))


class TestChains:
    def test_a_randomized_chain_needs_a_round(self):
        with raises(ValueError, "a chain needs at least one round"):
            AuxiliaryChain("x", ())

    def test_a_randomized_round_has_one_axis_per_prior_round(self):
        with raises(ValueError, "round 2 kernel must have 3 axes, got 2"):
            AuxiliaryChain("x", (HALVES, HALVES))

    def test_a_randomized_round_matches_the_prior_sizes(self):
        with raises(ValueError, "round 2 kernel shape (2, 3, 2) inconsistent with prior sizes [2]"):
            AuxiliaryChain("x", (HALVES, np.full((2, 3, 2), 0.5)))

    @pytest.mark.parametrize("sizes, tables", [((2,), ()), ((2, 2), (np.array([0, 1]),))])
    def test_a_deterministic_chain_has_one_table_per_round(self, sizes, tables):
        with raises(ValueError, "need one table per round"):
            DeterministicChain("x", sizes, tables)

    def test_a_deterministic_round_matches_the_prior_sizes(self):
        with raises(ValueError, "round 2 table shape (2, 3) inconsistent"):
            DeterministicChain("x", (2, 2), (np.array([0, 1]), np.zeros((2, 3), dtype=int)))

    @pytest.mark.parametrize("table", [[0, 2], [-1, 0]])
    def test_a_deterministic_round_takes_values_below_its_size(self, table):
        with raises(ValueError, "round 1 table values must lie in [0, 2)"):
            DeterministicChain("x", (2,), (np.array(table),))

    def test_a_round_covers_its_speakers_symbols(self, bss25):
        chain = AuxiliaryChain("x", (np.full((3, 2), 0.5),))
        with raises(ValueError, "round 1 speaks 'x' but its table covers 3 symbols, not 2"):
            chains.law_shape(bss25, chain)

    def test_a_dust_atom_pinning_neither_side_is_a_lemma_violation(self, bss25):
        """Round 1 sends a third value with probability 1e-12: the chain's
        residual, 1e-12 I(X;Y), passes as feasible, and that atom leaves
        both sides as uncertain as they were."""
        k = np.array([[1 - 1e-12, 0.0, 1e-12], [0.0, 1 - 1e-12, 1e-12]])
        with raises(LemmaViolation, "atom (2,) leaves both sides uncertain (H(X|u)=1, H(Y|u)=1)"):
            chains.binary_stop_classify(bss25, AuxiliaryChain("x", (k,)))

    def test_stacked_chains_share_initiator_and_sizes(self, bss25):
        with raises(ValueError, "stacked chains need one initiator and round sizes"):
            chains.chain_scores([bss25, bss25], [AuxiliaryChain("x", (HALVES,)),
                                                 AuxiliaryChain("y", (HALVES,))])


def test_a_hash_takes_at_most_its_input_bits():
    with raises(ValueError, "need 0 <= k <= m <= 63, got k=4, m=3"):
        hashing.AffineGf2Hash.sample(np.random.default_rng(0), 3, 4)


class TestPmf:
    def test_an_alphabet_has_a_symbol(self):
        with raises(EmptyMatrix, "alphabet must contain at least one symbol"):
            FiniteAlphabet(())

    def test_alphabet_labels_are_unique(self):
        with raises(ValueError, "alphabet labels must be unique, got ('a', 'a')"):
            FiniteAlphabet(("a", "a"))

    def test_rows_are_taken_on_x_or_y(self, bss25):
        with raises(ValueError, "side must be 'x' or 'y'"):
            bss25.conditional_rows("z")
        with raises(ValueError, "side must be 'x' or 'y'"):
            structure.minimal_sufficient_statistic(bss25, "z")

    @pytest.mark.parametrize("names, alphabets, shape, message", [
        (("a",), (A2,), (2,), "a TensorPMF needs at least two axes"),
        (("a", "a"), (A2, A2), (2, 2), "axis names must be unique, got ('a', 'a')"),
        (("a", "b"), (A2,), (2, 2), "names, alphabets and tensor rank must agree"),
        (("a", "b"), (A2, A2), (2, 2, 2), "names, alphabets and tensor rank must agree"),
        (("a", "b"), (A2, FiniteAlphabet.of_size(3)), (2, 2), "axis 'b': alphabet size 3 != dim 2"),
    ])
    def test_a_tensor_checks_its_axes(self, names, alphabets, shape, message):
        p = np.full(shape, 1.0 / np.prod(shape))
        with raises(ValueError, message):
            TensorPMF(names, alphabets, p)

    def test_a_function_axis_maps_every_source_symbol(self):
        with raises(ValueError, "class map length must match the source axis size"):
            tensor3().with_function_axis("x", [0, 1, 0], "g")

    @pytest.mark.parametrize("call, message", [
        (lambda t: entropy(t, ()), "entropy needs a nonempty axis subset"),
        (lambda t: conditional_entropy(t, (), "x"), "conditional_entropy needs a nonempty target"),
        (lambda t: mutual_information(t, (), "x"), "mutual_information needs two nonempty groups"),
        (lambda t: mutual_information(t, "x", ()), "mutual_information needs two nonempty groups"),
        (lambda t: conditional_mutual_information(t, "x", (), "u"),
         "conditional_mutual_information needs two nonempty groups"),
    ])
    def test_an_empty_group_is_refused(self, call, message):
        with raises(UnknownAxis, message):
            call(tensor3())

    @pytest.mark.parametrize("call, groups", [
        (lambda t: entropy(t, ("x", "x")), (("x", "x"),)),
        (lambda t: t.marginal_array(("y", "y")), (("y", "y"),)),
        (lambda t: conditional_entropy(t, ("x", "y"), "y"), (("x", "y"), ("y",))),
        (lambda t: mutual_information(t, "x", ("u", "x")), (("x",), ("u", "x"))),
        (lambda t: conditional_mutual_information(t, "x", "y", ("u", "y")),
         (("x",), ("y",), ("u", "y"))),
        (lambda t: conditional_mutual_information(t, "x", "y", ("u", "x")),
         (("x",), ("y",), ("u", "x"))),
    ])
    def test_an_axis_in_two_places_is_refused_by_one_check(self, call, groups):
        with raises(OverlappingAxes, f"axis groups {groups} name an axis twice"):
            call(tensor3())

    def test_an_unknown_axis_is_named(self):
        with raises(UnknownAxis, "axis 'z' not in ('x', 'y', 'u')"):
            conditional_mutual_information(tensor3(), "x", "y", "z")


def _protocol(n=1):
    return protocols.random_protocol(0, n, 1, (2,), 2, 2)


class TestProtocols:
    @pytest.mark.parametrize("sizes, tables", [((), ()), ((2,), ())])
    def test_one_message_table_per_round(self, sizes, tables):
        with raises(ValueError, "need one message table per round"):
            protocols.Protocol(1, sizes, tables)

    def test_message_sets_are_nonempty(self):
        with raises(ValueError, "message sets must be nonempty"):
            protocols.Protocol(1, (0,), (np.zeros((2, 1), dtype=int),))

    def test_a_round_table_has_one_column_per_prior_transcript(self):
        with raises(ValueError, "round 1 table must be (|own|^n, 1), got (2, 2)"):
            protocols.Protocol(1, (2,), (np.zeros((2, 2), dtype=int),))

    def test_a_lookup_table_covers_the_block_pairs(self):
        with raises(ValueError, "j_table must have shape (2, 2), got (3, 2)"):
            protocols.law_shape((2, 2), 1, (2,), np.zeros((3, 2), dtype=int))

    def test_stacked_protocols_share_their_shape(self, bss25):
        with raises(ValueError,
                    "stacked protocols need one blocklength, message sizes and initiator"):
            protocols.lemma1_sides([bss25, bss25], [_protocol(1), _protocol(2)])

    def test_stacked_lookup_tables_share_their_size(self, bss25):
        proto = _protocol()
        tables = [np.array([[0, 1], [1, 0]]), np.array([[0, 2], [1, 0]])]
        with raises(ValueError, "stacked lookup tables need one J size"):
            protocols.decomposition_sides([bss25, bss25], [proto, proto], tables)

    def test_a_random_protocol_has_one_size_per_round(self):
        with raises(ValueError, "need one message size per round"):
            protocols.random_protocol(0, 1, 2, (2,), 2, 2)


def test_crsk_needs_a_trial(bss25):
    with raises(ValueError, "need at least one trial"):
        simulate.cr_sk_simulate(bss25, simulate.default_copy_chain(bss25), 4, 0.1, 0, 0)


def test_gain_entries_are_nonnegative():
    with raises(ConstraintViolation, "entries must be nonnegative"):
        sources.gain_pmf(-0.1, 0.5, 1.3)


class TestStructure:
    def test_a_labeling_covers_every_symbol(self):
        with raises(ValueError, "class map must cover every symbol"):
            structure.Labeling(A2, (0,), 1)

    def test_a_side_without_mass_has_no_statistic(self):
        # a JointPMF built without validate_pmf, which refuses a massless law
        empty = JointPMF(A2, A2, np.zeros((2, 2)))
        with raises(DegenerateMarginal, "marginal on 'y' carries no mass"):
            structure.minimal_sufficient_statistic(empty, "y")


class TestWyner:
    def test_a_kernel_ends_in_its_w_size(self):
        with raises(KernelInvalid, "kernel shape (2, 2) does not end in w_size=2"):
            wyner.AuxKernel(2, HALVES)

    def test_a_kernel_covers_the_source(self, bss25):
        kernel = wyner.AuxKernel(2, np.full((3, 1, 2), 0.5))
        with raises(KernelInvalid, "kernel source shape (3, 1) does not match pmf (2, 2)"):
            wyner.wyner_objective(bss25, kernel)
