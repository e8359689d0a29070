"""The limit solenoid: bi-infinite paths, stable/unstable equivalence, germs.

Bi-infinite paths rho^inf . mid . pi^inf carry an anchor index.  Stable
equivalence compares left-truncations up to asymptotic equivalence;
unstable equivalence asks for one groupoid element (from the closure of
N u N^2) mapping one right tail onto the other.  Germ equality compares
restriction sequences along the source ray until they merge or cycle.
"""

from pathlib import Path as FsPath

from selfsim import (
    ae_equivalent_bi,
    compute_nucleus,
    germ_equal,
    make_germ,
    parse_path,
    parse_spec,
    stable_equivalent,
    unstable_equivalent,
)

SPECS = FsPath(__file__).resolve().parent.parent / "specs"

aut = parse_spec((SPECS / "ex310.ss").read_text()).automaton()
g = aut.graph
nuc = compute_nucleus(aut)

x = parse_path(g, "(2.3)^inf . 1 . (1)^inf @ 0")
y = parse_path(g, "(3.2)^inf . 4 . (1)^inf @ 1")
print("x =", x)
print("y =", y)

print("bi-infinite ae(x, x):", ae_equivalent_bi(x, x, nuc))

ok, m = stable_equivalent(x, y, nuc)
print("stable(x, y):", ok, "at truncation depth m =", m)

# x(1, inf) = 1 1 1 ... while y(1, inf) = 4 1 1 ...; the generator a maps
# one onto the other (a.1 = 4 with unit restriction), so the witness is
# (M, g) = (0, a).
ok, (M, elem) = unstable_equivalent(x, y, nuc)
print("unstable(x, y):", ok, "witness M =", M, "g =", elem.name())

z = parse_path(g, "(1)^inf . (1)^inf @ 0")
print("stable(x, all-ones):", stable_equivalent(x, z, nuc)[0])
print("unstable(x, all-ones):", unstable_equivalent(x, z, nuc)[0])

# Germs [x, m, g, n, y]: the two germs below differ in their element (a
# versus a unit) but have the same restrictions from depth 1 on, so they
# are one and the same point of the groupoid.
ray = parse_path(g, "(1)^inf", kind="right")
img = aut.act_infinite(aut.generator("a"), ray)
germ1 = make_germ(aut, img, 0, aut.generator("a"), 0, ray)
germ2 = make_germ(aut, img, 1, aut.unit("v"), 1, ray)
print("germ [x,0,a,0,y] = germ [x,1,v,1,y]?", germ_equal(germ1, germ2, nuc))
