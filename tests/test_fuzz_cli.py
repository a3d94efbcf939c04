"""Boundary values for every config key, through the whole `pretrain`
command: each run exits 0, 1 or 2, and a failing one prints exactly one
`error:` line, never a traceback or a warning.  A key of an earlier
version (`config.REMOVED_KEYS`) exits 1 at every value.

Each value is given with `--set` on top of a one-epoch run on 8x8 images,
so a value the command accepts trains one step.  `cli.run` runs
in-process.
"""
import warnings
from dataclasses import fields

import pytest

from trimix.cli import run
from trimix.config import REMOVED_KEYS, TriMixConfig

SMALL_RUN = [
    "epochs=1", "synthetic_size=8", "synthetic_train=8", "synthetic_test=8", "batch_size=8",
    "encoder_widths=8,4", "projector_widths=4,4,4",
]
BOUNDARY = ["0", "-1", "1e300", "nan", "inf", ""]
WRONG_TYPE = {"int": "2.5", "float": "abc", "bool": "2.5", "tuple": "x,y", "str": "2.5"}
# 10**11 ends the run at once for every key but these, where it is a
# valid run years long
LONG_RUN = {"epochs"}


TYPES = {f.name: f.type for f in fields(TriMixConfig)}


@pytest.mark.parametrize("name", [*TYPES, *REMOVED_KEYS])
def test_every_value_exits_with_at_most_one_error_line(tmp_path, capsys, name):
    values = BOUNDARY + [WRONG_TYPE[TYPES.get(name, "str")]] + ([] if name in LONG_RUN else [str(10**11)])
    for i, value in enumerate(values):
        args = ["pretrain", *(a for s in SMALL_RUN for a in ("--set", s)), "--set", f"{name}={value}",
                "--out", str(tmp_path / str(i))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(args)
        out, err = capsys.readouterr()
        case = f"{name}={value}"
        assert code in ((0, 1, 2) if name in TYPES else (1,)), case
        assert not caught, (case, [str(w.message) for w in caught])
        assert "Traceback" not in out + err, case
        lines = err.splitlines()
        assert len(lines) == (code != 0), (case, lines)
        assert all(line.startswith("error: ") for line in lines), (case, lines)
