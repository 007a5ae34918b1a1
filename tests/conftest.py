import csv
import json

import numpy as np
import pytest

from chadkit.data import Dataset, RecordSchema


@pytest.fixture
def small_schema():
    return RecordSchema(
        ["color", "shape"],
        ["size", "weight", "width", "height"],
        [{"red": 0, "green": 1, "blue": 2}, {"circle": 0, "square": 1}],
    )


@pytest.fixture
def small_dataset(small_schema):
    rng = np.random.default_rng(42)
    n = 40
    cat = np.stack([rng.integers(0, 3, n), rng.integers(0, 2, n)], axis=1)
    cont = rng.random((n, 4))
    return Dataset(small_schema, cat, cont)


def write_csv(path, schema, cat, cont, header=None, label=None):
    """Write rows of a dataset-like structure as a CSV file."""
    header = header or (list(schema.cat_fields) + list(schema.cont_fields))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header + (["label"] if label is not None else []))
        for i in range(len(cat)):
            row = [schema.decode_value(w, cat[i][w]) for w in range(schema.k)]
            row += [repr(float(v)) for v in cont[i]]
            if label is not None:
                row.append(str(int(label[i])))
            writer.writerow(row)


def read_csv(path):
    """Every row of a CSV file, the header included."""
    with open(path, newline="") as f:
        return list(csv.reader(f))


def write_schema_json(path, schema):
    obj = {name: "categorical" for name in schema.cat_fields}
    obj.update({name: "continuous" for name in schema.cont_fields})
    with open(path, "w") as f:
        json.dump(obj, f)
