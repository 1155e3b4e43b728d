"""Rainbow extraction on a random instance, step by step.

Builds a seeded 500-point set, measures the coloring's goodness, compares
the sampling bound with observed conflict counts, and runs the extraction
until it hands back a verified subset with pairwise distinct distances.

Run: python3 demos/02_random_extraction.py
"""

from dvsubset import (
    FindRequest,
    RainbowResult,
    build_coloring,
    expected_conflict_bound,
    extract_rainbow,
    find_subset,
    gen_random,
    goodness,
    sample_conflicts,
    verify_subset,
)

N, T, SEED = 500, 5, 0

# a coarse coordinate lattice, so repeated distances genuinely occur
pset = gen_random(2, N, 2000, seed=SEED)
print(f"instance: {N} seeded random lattice points, a=2, t={T}")

coloring = build_coloring(pset, 2)
report = goodness(coloring)
m = report.observed_m
print(f"goodness: m = {m} (largest same-distance class from one point)")

bound = expected_conflict_bound(N, 2, m, T)
print(f"expected same-color pairs per {2 * T}-point sample: <= {bound}")

counts = [sample_conflicts(coloring, T, seed=s).count for s in range(10)]
mean = sum(counts) / len(counts)
print(f"observed over 10 sample draws: {counts} (mean {mean:.1f})")

result = extract_rainbow(coloring, T, seed=SEED)
assert isinstance(result, RainbowResult)
print(f"extraction: subset {result.subset} after {result.retries_used} retries,")
print(f"  {result.conflicts_in_accepted_sample} conflicting pairs deleted from the sample")

check = verify_subset(pset, result.subset, 2)
print(f"verification: valid={check.valid} ({len(result.subset)} points, "
      f"all pairwise distances distinct)")

print()
print("the one-call version, which measures m itself:")
found = find_subset(pset, FindRequest(a=2, seed=SEED))
print(f"  find -> {len(found.subset)} ids, certificate {found.certificate!r}, "
      f"t_target {found.t_target}, stats {found.stats}")
