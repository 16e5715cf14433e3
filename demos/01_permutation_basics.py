"""
A first walk through the core types.

Permutations are plain tuples in one-line notation.  Involutions are
permutations equal to their own inverse; their cycle pairs, fixed
points, codes and descent statistics all read off the word.
"""
from invpat.core import (cycles, format_cycles, format_perm, fpf_code,
                         generate_fpf, generate_involutions, inverse,
                         involution_code, lr_minima, odd_fix_gap, parse_perm,
                         reverse_complement, standardize, visible_descents)

tau = parse_perm("21647358")
print("one-line:", format_perm(tau))
print("cycle form:", format_cycles(tau))
print("self-inverse:", inverse(tau) == tau)

# standardization is how every deletion is finished off
print("\nstandardize (2,6,4,3):", format_perm(standardize((2, 6, 4, 3))))

# the running example of the path chapter
example = parse_perm("426153")
print("\ncycles of 426153:", sorted(cycles(example)))
lr, endpoints = lr_minima(example)
print("leftmost cycles:", lr, "covering", endpoints)

# counting statistics
print("\ncode of 21647358:", involution_code(tau))
print("visible descents:", sorted(visible_descents(tau)))
rho = parse_perm("2143")
print("matching code of 2143:", fpf_code(rho))

# the odd-gap condition that appears in the smoothness story
print("\nodd gap holds for 21354:", odd_fix_gap(parse_perm("21354")))
print("odd gap holds for 2143:", odd_fix_gap(rho))

# generators stream in lexicographic order
print("\ninvolutions of size 4:",
      " ".join(format_perm(t) for t in generate_involutions(4)))
print("matchings of size 4:",
      " ".join(format_perm(t) for t in generate_fpf(4)))

print("\nreverse-complement of 132:", format_perm(reverse_complement((1, 3, 2))))
