"""The CLI contract over every command and key: a run exits 0, 2 or 3; a
failure prints one ``error: <category>:`` line and writes no file; a
success writes only finite numbers and a summary that is strict JSON.

The arguments are drawn from the ``_COMMANDS`` rows and typed by
``_CASTS``: mostly values inside each key's valid range, sometimes a
boundary value (1e+-300, subnormals, sigma near the 1.34e154 at which
its square overflows, NaN, infinities).  The keys that set a run's size
are always drawn, and small, so that the examples stay short.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmooth.cli import _CASTS, _COMMANDS, main

_EDGES = ["1e300", "-1e300", "1e-300", "-1e-300", "5e-324", "1e-310",
          "1.34e154", "1.35e154", "0.0", "-0.0", "nan", "inf", "-inf"]

#: the valid range of each float key, as far as a key has one alone
_FLOATS = {"s0": (1e-3, 1e3), "sigma": (0.05, 3.0), "mu": (-1.0, 1.0),
           "T": (0.1, 5.0), "strike": (1e-3, 1e3),
           "holder_theta": (0.05, 0.95), "c0": (-10.0, 10.0),
           "c1": (-10.0, 10.0), "chaos_center": (-3.0, 3.0),
           "chaos_strike": (0.1, 10.0), "theta": (0.05, 0.95),
           "net_theta": (0.1, 1.0), "t_list": (0.0, 1.0),
           "s_list": (1e-3, 1e3)}

#: the small valid range of each integer key, and its boundary values
_INTS = {"seed": ((0, 2 ** 64 - 1), [-1, 2 ** 64]),
         "threads": ((1, 2), [0, -1]),
         "m": ((2, 64), [0, 1]),
         "n": ((1, 32), [0, -1]),
         "depth": ((10, 14), [-1, 0, 7]),
         "chaos_order": ((1, 24), [0, -1]),
         "n_list": ((1, 64), [0, -1])}

_WORDS = {"payoff": ["call", "put", "binary", "power_holder", "affine",
                     "chaos"],
          "chaos_kind": ["indicator", "exp_call"],
          "measure": ["martingale", "historical"]}

#: keys that set a run's size, always drawn
_SIZE_KEYS = {"m", "n", "depth", "chaos_order", "t_list", "s_list", "n_list"}


def _mostly(inside, edges):
    """A draw from ``inside`` nine times in ten, else one of ``edges``."""
    return st.integers(0, 9).flatmap(
        lambda k: inside if k else st.sampled_from(edges))


def _n_run(n_min, ratios):
    """n_min, then each n the last one times the next ratio, rounded up,
    for as long as it stays within 64."""
    ns = [n_min]
    for r in ratios:
        n = math.ceil(ns[-1] * r)
        if n > 64:
            break
        ns.append(n)
    return ns


#: a sweep's n_list: n_min, which the fit drops, then a geometric run
#: with ratios from sqrt(2) to 2, so that every such list has the 4
#: distinct n over 2 octaves that the fit needs, and the run reaches the
#: walk unless another key is refused
_N_RUNS = st.builds(_n_run, st.integers(1, 4),
                    st.lists(st.floats(math.sqrt(2.0), 2.0), min_size=5,
                             max_size=5)).map(lambda ns: [str(n) for n in ns])


def _scalar(key):
    """The values of ``key`` inside its range, and its boundary values."""
    if key in _WORDS:
        return st.sampled_from(_WORDS[key]), ["bogus", ""]
    if key in _INTS:
        (lo, hi), edges = _INTS[key]
        return st.integers(lo, hi).map(str), [str(e) for e in edges] + ["1.5"]
    return st.floats(*_FLOATS[key]).map(repr), _EDGES


def _value(command, key):
    inside, edges = _scalar(key)
    if not isinstance(_CASTS[key], list):
        return _mostly(inside, edges)
    if key == "n_list" and command == "hedge-sweep":
        return _mostly(_N_RUNS, [[e] for e in edges]).map(",".join)
    lists = st.lists(inside, min_size=1, max_size=3, unique=True)
    return _mostly(lists, [[e] for e in edges]).map(",".join)


@st.composite
def _argv(draw, command):
    """The command, its size keys and up to four more of its row's keys."""
    row = _COMMANDS[command][1]
    keys = sorted(_SIZE_KEYS & set(row))
    keys += draw(st.lists(st.sampled_from(sorted(set(row) - _SIZE_KEYS
                                                 - {"out"})),
                          max_size=4, unique=True))
    argv = [command]
    for key in keys:
        argv += [f"--{key}", draw(_value(command, key))]
    return argv


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def _check_run(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run.csv")
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = main(argv + ["--out", out])
        names = sorted(os.listdir(tmp))
        err = stderr.getvalue()
        assert rc in (0, 2, 3), (rc, err)
        if rc:
            assert re.fullmatch(
                r"error: (config|numerical|degenerate|io): [^\n]*\n", err), err
            assert names == [], names
            return
        assert err == ""
        for name in names:
            with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                text = fh.read()
            if name.endswith(".summary"):
                assert _strict_json(text) == _strict_json(stdout.getvalue())
                continue
            for line in text.splitlines():
                if line.startswith("#"):
                    continue
                for field in line.split(","):
                    try:
                        x = float(field)
                    except ValueError:
                        continue
                    assert math.isfinite(x), (name, line)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=60)
@given(data=st.data())
def test_cli_contract(command, data):
    _check_run(data.draw(_argv(command)))
