"""The names `perfbench/tracer.py` wraps must stay in `cit`.

The traced bench run (`perfbench/run.py --trace 1`) looks up public
functions, `chains.iter_canonical_chains`, the `AffineGf2Hash` methods and
some imported bindings (`protocols.entropy`) by name at install; deleting
one breaks that run, not the untraced one.
"""

import sys

import cit.chains
import cit.hashing
from tracer import REQUIRED_SITES, Tracer


def test_tracer_installs_and_uninstalls():
    cit_modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                   if name == "cit" or name.startswith("cit.")}
    hash_methods = dict(vars(cit.hashing.AffineGf2Hash))
    tracer = Tracer()
    tracer.install()
    try:
        assert set(REQUIRED_SITES) <= set(tracer.sites)
        assert "cit.chains.iter_canonical_chains" in tracer.sites
        assert cit.chains.det_chain_search is not cit_modules["cit.chains"]["det_chain_search"]
    finally:
        tracer.uninstall()
    for name, before in cit_modules.items():
        after = vars(sys.modules[name])
        assert all(after[attr] is value for attr, value in before.items()), name
    assert dict(vars(cit.hashing.AffineGf2Hash)) == hash_methods
