"""Contracting detection: nucleus, R_k constants, and the Moore diagram.

An action is contracting when every element's restrictions eventually fall
into one fixed finite set; the minimal such set is the nucleus.  It is
computed by iterating limit restrictions of pair products on canonical
classes, and the result carries a closure certificate.
"""

from pathlib import Path as FsPath

from selfsim import (
    Bounds,
    NotContractingWithinBound,
    compute_Rk,
    compute_nucleus,
    limit_restrictions,
    moore_diagram,
    parse_spec,
)

SPECS = FsPath(__file__).resolve().parent.parent / "specs"


def load(name):
    return parse_spec((SPECS / name).read_text()).automaton()


aut = load("ex310.ss")
nuc = compute_nucleus(aut)
print("nucleus of the four-edge example:", nuc.state_names())

# The limit set of a single element: nodes of its restriction digraph that
# are reachable from a directed cycle (ab itself and ba are transient).
ab = aut.compose(aut.generator("a"), aut.generator("b"))
print("limit restrictions of ab:", sorted(x.name() for x in limit_restrictions(aut, ab)))

# R_k = depth after which k-fold nucleus products restrict back into the
# nucleus.  R_1 = 0 always; here R_2 = 2 because (ab)|_4 = ba needs two
# more letters to reduce.
print("R_1, R_2, R_3 =", [compute_Rk(nuc, k) for k in (1, 2, 3)])

print()
print(moore_diagram(nuc, "dot"))
print()

# The basilica-type action: the minimal core has 14 classes; the two
# mixed-sign elements b c^-1 and c b^-1 restrict to each other forever
# along the edges 0, 1.
bas = load("basilica.ss")
nucb = compute_nucleus(bas)
print("basilica-type nucleus size:", len(nucb))
print(sorted(nucb.state_names()))

# Contraction is only semi-decidable: a machine whose restriction words
# double in length never certifies, and says so honestly.  Every search
# reads the automaton's one Bounds.
non = parse_spec((SPECS / "noncontracting.ss").read_text()).automaton(
    Bounds(max_states=500, max_rounds=10))
res = compute_nucleus(non)
assert isinstance(res, NotContractingWithinBound)
print("non-contracting example:", res.bound_hit, "budget", res.max_states)
