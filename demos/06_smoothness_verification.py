"""
The smoothness pattern sets and the equality sweeps.

Two pattern families classify when orbit closures on the flag variety
are (rationally) smooth.  The point verified computationally: over the
relevant sets, avoidance in the deletion orders coincides with plain
classical avoidance, so the geometric criteria can be read off from
subsequences alone.  The sweeps below go to sizes 10 and 12; the run
to size 16, twice the largest pattern size, proves the equalities for
every size:

    invpat verify-mcgovern --to 16
"""
from invpat.core import format_perm, parse_perm
from invpat.mcgovern import (PI, PI_PRIME, rational_smoothness_fpf,
                             rational_smoothness_involution,
                             smoothness_involution, verify_part1,
                             verify_part2)

print(f"involution patterns: {len(PI)} of sizes 5..8")
print(f"matching patterns:   {len(PI_PRIME)} of sizes 6 and 8")
print()

for tau in ("21354", "2143", "14325"):
    t = parse_perm(tau)
    print(f"{format_perm(t):>8}: rationally smooth={rational_smoothness_involution(t)}"
          f"  smooth={smoothness_involution(t)}")
for rho in ("21", "351624"):
    r = parse_perm(rho)
    print(f"{format_perm(r):>8}: matching rationally smooth={rational_smoothness_fpf(r)}")

print()
print(verify_part1(10).to_text())
print()
print(verify_part2(12).to_text())
