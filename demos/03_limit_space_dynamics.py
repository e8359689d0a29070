"""The limit space: asymptotic equivalence of left-infinite paths.

Left-infinite paths are presented as cycle^inf . tail.  Two of them are
asymptotically equivalent when a left-infinite run of nucleus states maps
one onto the other coherently; classes have at most |nucleus| members and
the one-sided shift descends to them.
"""

from pathlib import Path as FsPath

from selfsim import (
    ae_class,
    ae_equivalent,
    compute_nucleus,
    is_hausdorff,
    is_regular,
    level_transitive,
    parse_path,
    parse_spec,
)

SPECS = FsPath(__file__).resolve().parent.parent / "specs"


def load(name):
    return parse_spec((SPECS / name).read_text()).automaton()


aut = load("ex310.ss")
g = aut.graph
nuc = compute_nucleus(aut)

x = parse_path(g, "(1)^inf")
print("class of (1)^inf:", [str(m) for m in ae_class(x, nuc)])

y = parse_path(g, "(2.3)^inf")
print("class of (2.3)^inf:", [str(m) for m in ae_class(y, nuc)])
z = parse_path(g, "(4.2)^inf")
ok, wit = ae_equivalent(y, z, nuc)
print("(2.3)^inf ~ (4.2)^inf?", ok, "entered the tail in state", wit.entry_state)

# the shift deletes the rightmost edge and rotates the cycle presentation
print("shift (2.3)^inf =", y.shift(g))

# Deciders for the shift dynamics:
print("regular?", is_regular(nuc)[0], " hausdorff?", is_hausdorff(nuc)[0])
print("level-transitive up to 8?", all(level_transitive(aut, n) for n in range(1, 9)))

# An irregular, non-Hausdorff machine: h fixes the loop 0 with restriction
# h (a cycle in the fixed-edge digraph) and strongly fixes the loop 1 (the
# cycle reaches a unit).
nh = load("nonhausdorff.ss")
nuch = compute_nucleus(nh)
ok, wit = is_regular(nuch)
print("nonhausdorff.ss regular?", ok, "witness:", wit.element, "fixes", wit.fixed_path)
ok, wit = is_hausdorff(nuch)
print("nonhausdorff.ss hausdorff?", ok,
      "strongly fixed extension:", ".".join(wit.strongly_fixed_extension))
