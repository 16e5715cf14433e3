"""
The path zoo and the bijection chain.

A 132-avoiding involution factors as: openers first, then closers and
fixed points interleaved.  Stripping fixed points leaves a matching
whose second half is a permutation; the permutation becomes an
insertion history of its increasing binary tree; the history unfolds
into a labeled Dyck path; and re-inserting one level step per fixed
point yields a Motzkin path whose level steps all sit at even height.
Every arrow is invertible.
"""
from invpat.bijections import (_tree_kids, andre_to_involution,
                               dyck_to_history, history_to_dyck,
                               history_to_perm, involution_to_andre,
                               iter_andre_paths, perm_to_history,
                               remove_fixed_points, skew_half,
                               strip_level_steps)
from invpat.classes import PatternSet, class_members
from invpat.containment import Mode
from invpat.core import format_perm, parse_perm
from invpat.enumeration import formula_pattern132

tau = parse_perm("85642371")
print("involution:", format_perm(tau))

rho, fixed = remove_fixed_points(tau)
print("matching after dropping fixed points:", format_perm(rho),
      "fixed were at", fixed)

sigma = skew_half(rho)
print("second-half permutation:", format_perm(sigma))

lh = perm_to_history(sigma)
print("insertion history:", lh)
print("  (round trip:", format_perm(history_to_perm(lh)), ")")

ldp = history_to_dyck(lh)
print("labeled Dyck path:", ldp)
print("  (its word is the child slots, filled = U:", "".join(
    "U" if v else "D" for v in _tree_kids(sigma)[1:2 * len(sigma) + 1]), "=", ldp.word, ")")
print("  (back again:", dyck_to_history(ldp), ")")

ap = involution_to_andre(tau)
print("even-level path:", ap)
comp, stripped = strip_level_steps(ap)
print("level blocks:", comp, "around", stripped.word)
print("inverse recovers:", format_perm(andre_to_involution(ap)))

# the whole family at once: the paths of length n are exactly counted
# by the 132-avoiders, level steps tracking fixed points
n = 7
members = class_members(PatternSet([(1, 3, 2)], Mode.I), Mode.I, n)
paths = list(iter_andre_paths(n))
print(f"\nsize {n}: {len(members)} avoiders, {len(paths)} paths,",
      "formula says", formula_pattern132(n))
by_levels = {}
for t in members:
    word = involution_to_andre(t).word
    by_levels[word.count("L")] = by_levels.get(word.count("L"), 0) + 1
print("avoiders by fixed-point count:", dict(sorted(by_levels.items())))
