"""How negative samples are built from real records.

Categorical fields are swapped with probability proportional to dampened
arity (so high-cardinality fields do not monopolize the perturbations),
and a quarter of the continuous fields shift up past the data range while
a disjoint quarter shift by a centered draw. The result is a record that
is similar to real data yet reliably off its manifold.
"""
import numpy as np

from chadkit.data import RecordSchema
from chadkit.negsampler import (NegSamplerConfig, category_probs,
                                generate_negatives_batch, perturb_continuous)

arities = (100, 10, 50)
print("== field-selection probabilities ==")
probs = category_probs(arities)
for a, p in zip(arities, probs):
    raw = a / sum(arities)
    print(f"arity {a:4d}: raw share {raw:.3f} -> dampened {p:.3f}")
print(f"dampening keeps the arity-10 field in play "
      f"({arities[1] / sum(arities):.3f} raw -> {probs[1]:.3f} dampened)")

print("\n== continuous perturbation ==")
values = np.round(np.linspace(0.1, 0.9, 8), 3)
out, up, down = perturb_continuous(values, delta=0.5, rng=np.random.default_rng(2))
print(f"original: {values.tolist()}")
print(f"shifted : {np.round(out, 3).tolist()}")
print(f"fields {sorted(up.tolist())} moved up by (0.5, 1.5); "
      f"fields {sorted(down.tolist())} moved by (-0.5, 0.5); rest untouched")
print("note the up-shifted values exceed 1.0: negatives deliberately spill "
      "beyond the observed range")

print("\n== whole-record negatives ==")
vocabs = [{f"v{i}": i for i in range(a)} for a in arities]
schema = RecordSchema(["carrier", "origin", "route"],
                      [f"num_{j}" for j in range(8)], vocabs)
cat, cont = np.array([7, 3, 21]), np.round(np.linspace(0.2, 0.8, 8), 2)
print(f"source record: cat={cat.tolist()} cont={cont.tolist()}")
neg_cat, neg_cont = generate_negatives_batch(cat[None, :], cont[None, :],
                                             NegSamplerConfig(m=5), schema,
                                             np.random.default_rng(3))
for i in range(len(neg_cat)):
    swapped = [w for w in range(3) if neg_cat[i, w] != cat[w]]
    moved = [j for j in range(8) if not np.isclose(neg_cont[i, j], cont[j])]
    print(f"negative {i}: swapped cat fields {swapped}, moved cont fields {moved}, "
          f"cat={neg_cat[i].tolist()}")
