"""The four structural test functors of the natural model structure.

I = {0 -> 1, K0 -> K1, K2 -> K1} (`generating_cofibrations`) generates the
cofibrations: I-perp is the acyclic fibrations.  J = {inc0: 1 -> I}
generates the acyclic cofibrations: J-perp is the isofibrations, so `inc0`
detects them and the small object argument with J factors any functor as an
acyclic injection followed by an isofibration."""

from __future__ import annotations

from ..fincat import Functor, empty_category, interval_category, k_category, unit_category


def empty_to_unit() -> Functor:
    return Functor("0->1", empty_category(), unit_category(), {}, {})


def k0_to_k1() -> Functor:
    return Functor("K0->K1", k_category(0), k_category(1),
                   {"0": "0", "1": "1"}, {"id_0": "id_0", "id_1": "id_1"})


def k2_to_k1() -> Functor:
    return Functor("K2->K1", k_category(2), k_category(1),
                   {"0": "0", "1": "1"},
                   {"id_0": "id_0", "id_1": "id_1", "a1": "a1", "a2": "a1"})


def inc0() -> Functor:
    """The endpoint inclusion 1 -> I: J, with no caller in src yet."""
    return Functor("inc0", unit_category(), interval_category(),
                   {"*": "0"}, {"id_*": "id_0"})


def generating_cofibrations():
    return [empty_to_unit(), k0_to_k1(), k2_to_k1()]
