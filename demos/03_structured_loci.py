"""What happens when the input hides structure: spheres and hyperplanes.

Two adversarial instances.  First, many points on one circle: any sample
touching the center exposes a bad tuple (one point, many equidistant
neighbors), and the search recurses into the sphere locus.  Second, many
points on one line: for triangles the search discovers a hyperplane both of
whose sides it can certify, answering with an all-degenerate subset.

Run: python3 demos/03_structured_loci.py
"""

from fractions import Fraction as F

from dvsubset import (
    BadEdgeWitness,
    FindRequest,
    GeneralPositionError,
    PointSet,
    build_coloring,
    extract_rainbow,
    find_subset,
    gen_cocircular_plus_noise,
    verify_subset,
)

print("-- sphere locus --")
pset = gen_cocircular_plus_noise(30, 100, seed=11)
print(f"instance: origin + 30 points on its unit circle + 100 noise (n={len(pset)})")

witness = extract_rainbow(build_coloring(pset, 2), 65, seed=3, watch=5)
assert isinstance(witness, BadEdgeWitness)
print(f"bad tuple: point {witness.tuple_ids[0]} sees {len(witness.extensions)} "
      f"others at squared distance {witness.color.volume()} (budget was 5)")

res = find_subset(pset, FindRequest(a=2, mode="locus_recursion", m=5, t_override=65, seed=3))
trace = ", ".join(f"{e['locus']}({len(e['ids'])} ids)" for e in res.recursion_trace)
print(f"locus search: recursed into {trace}; answer {res.subset}, "
      f"verified={verify_subset(pset, res.subset, 2).valid}")

print()
print("-- hyperplane locus --")
rows = [(k, 0) for k in range(40)] + [
    (F(1, 3), 2), (F(17, 5), 2), (F(7, 2), F(5, 3)),
    (F(-3, 7), F(19, 6)), (F(23, 4), F(11, 8)),
]
line = PointSet(2, rows)
print(f"instance: 40 collinear points + 5 noise, two noise points sharing y=2 (n={len(line)})")

res = find_subset(line, FindRequest(a=3, mode="locus_recursion", m=5, t_override=22, seed=0))
print(f"certificate: {res.certificate!r} with {len(res.subset)} ids {res.subset[:6]}...,")
print(f"  trace {[(e['locus'], len(e['ids'])) for e in res.recursion_trace]}"
      f" -> every triangle inside the answer is degenerate")
print(f"  verified={verify_subset(line, res.subset, 3, 'h').valid}")

try:
    find_subset(line, FindRequest(a=3, mode="locus_recursion", m=5,
                                  t_override=22, seed=0, variant="h_prime"))
except GeneralPositionError as exc:
    print(f"strict variant: rejected, collinear witness {exc.witness}")
