from pathlib import Path

import pytest

from gnndsim.cli import build_parser
from gnndsim.config import (
    ConfigError,
    ExperimentConfig,
    apply_paper_scale,
    config_echo,
    load_config,
    parse_config,
    pilot_power_value,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOOD = """
# a comment
kind = gmi-sweep
seed = 7
users = 4
antennas = 2
snr_db = 0, 5, 10
methods = gnnd, cl, mi
receiver = sic
draws = 3
samples = 1000
out = result.csv
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.kind == "gmi-sweep"
    assert cfg.snr_db == (0.0, 5.0, 10.0)
    assert cfg.methods == ("gnnd", "cl", "mi")
    assert cfg.receiver == "sic"
    assert cfg.users == 4 and cfg.antennas == 2
    assert cfg.out == "result.csv"


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3: unknown key 'bogus'"):
        parse_config("kind = gmi-sweep\nseed = 1\nbogus = 2\n")


@pytest.mark.parametrize("key, value", [
    ("sic_order", "natural"), ("llr_max", "30.0"), ("bp_iters", "50"), ("net_lr", "0.001"),
])
def test_retired_settings_are_unknown_keys(key, value):
    # fixed choices of the runners (harness.LLR_MAX, BP_ITERS, NET_LR and the
    # natural cancellation order), no longer settable
    with pytest.raises(ConfigError, match=f"line 3: unknown key '{key}'"):
        parse_config(f"kind = gmi-sweep\nseed = 1\n{key} = {value}\n")


def test_duplicate_key_reports_line():
    with pytest.raises(ConfigError, match="line 3: duplicate"):
        parse_config("kind = gmi-sweep\nseed = 1\nseed = 2\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("kind = gmi-sweep\nseed = banana\n")


def test_missing_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("kind = gmi-sweep\n")


def test_missing_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        parse_config("seed = 3\n")


def test_empty_methods_rejected():
    with pytest.raises(ConfigError, match="method"):
        parse_config("kind = gmi-sweep\nseed = 1\nmethods =\n")


@pytest.mark.parametrize("kind", ["gmi-sweep", "viterbi-ber", "ldpc-ber"])
def test_repeated_method_rejected(kind):
    # a repeated method would count its blocks twice and write its rows twice
    with pytest.raises(ConfigError, match="repeats"):
        parse_config(f"kind = {kind}\nseed = 1\nmethods = gnnd, cl, gnnd\n")


@pytest.mark.parametrize("kind, methods, bad", [
    ("gmi-sweep", "ml", "ml"),
    ("gmi-sweep", "gnnd, ml", "ml"),
    ("viterbi-ber", "gnnd, cl, mi", "mi"),  # the default list
    ("ldpc-ber", "gnnd, mi", "mi"),
    ("ldpc-ber", "cl, ml", "ml"),
    ("scatter", "bogus", "bogus"),
])
def test_runner_rejects_foreign_method(kind, methods, bad):
    with pytest.raises(ConfigError, match=f"method '{bad}' not available for {kind}"):
        parse_config(f"kind = {kind}\nseed = 1\nmethods = {methods}\n")


def test_empty_snr_grid_rejected():
    with pytest.raises(ConfigError, match="snr"):
        parse_config("kind = gmi-sweep\nseed = 1\nsnr_db =\n")


def test_nonpositive_counts_rejected():
    with pytest.raises(ConfigError, match="users"):
        ExperimentConfig(kind="gmi-sweep", seed=1, users=0)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("fields, match", [
    (dict(net_samples=100, net_batch=500), "net_samples"),
    (dict(net_samples=0), "net_samples"),
    (dict(net_epochs=0), "net_epochs"),
    (dict(net_batch=-500), "net_batch"),
    (dict(power=float("nan")), "power"),
    # non-finite inputs, which a run would turn into NaN rows or a failure deep inside
    (dict(power=INF), "power"),
    (dict(snr_db=(0.0, NAN)), "snr_db"),
    (dict(snr_db=(INF,)), "snr_db"),
    (dict(snr_db=(-INF, 10.0)), "snr_db"),
    (dict(pilot_power="inf"), "pilot_power"),
    (dict(pilot_power="1e400"), "pilot_power"),
    (dict(pilot_power="infP"), "pilot_power"),
    (dict(pilot_power="nanP"), "pilot_power"),
    (dict(power=1e10, pilot_power="1e300P"), "pilot_power"),
])
def test_net_and_float_fields_checked_at_parse(fields, match):
    # the net's training settings and the float inputs fail here, naming
    # the field, not partway through a run
    base = dict(kind="ldpc-ber", seed=1, users=2, antennas=2, methods=("gnnd",),
                net=True)
    ExperimentConfig(**base, net_samples=500, net_batch=500)  # the boundary
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(**base, **fields)
    text = "".join(f"{k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                   for k, v in dict(base, net="on", **fields).items())
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


@pytest.mark.parametrize("kind, methods", [
    ("gmi-sweep", ("gnnd",)), ("scatter", ()), ("viterbi-ber", ("gnnd",)), ("train-net", ()),
])
def test_net_read_by_ldpc_only(kind, methods):
    # only ldpc-ber decodes with the network; scatter draws exact means only
    ExperimentConfig(kind=kind, seed=1, methods=methods)
    with pytest.raises(ConfigError, match="net"):
        ExperimentConfig(kind=kind, seed=1, methods=methods, net=True)
    ExperimentConfig(kind="ldpc-ber", seed=1, methods=("gnnd",), net=True)


@pytest.mark.parametrize("kind, methods, read", [
    ("gmi-sweep", ("gnnd",), True), ("viterbi-ber", ("gnnd",), True),
    ("ldpc-ber", ("gnnd",), False), ("scatter", (), False), ("train-net", (), False),
])
def test_threads_read_by_gmi_and_viterbi_only(kind, methods, read):
    # a runner that starts no worker pool must not be given one
    ExperimentConfig(kind=kind, seed=1, methods=methods, threads=1)
    if read:
        assert ExperimentConfig(kind=kind, seed=1, methods=methods, threads=2).threads == 2
        return
    with pytest.raises(ConfigError, match="threads"):
        ExperimentConfig(kind=kind, seed=1, methods=methods, threads=2)
    with pytest.raises(ConfigError, match="threads"):
        parse_config(f"kind = {kind}\nseed = 1\nmethods = {','.join(methods)}\nthreads = 2\n")


@pytest.mark.parametrize("kind, methods, read", [
    ("gmi-sweep", ("gnnd",), True), ("viterbi-ber", ("gnnd",), True),
    ("ldpc-ber", ("gnnd",), True), ("scatter", (), False), ("train-net", (), False),
])
def test_snr_grid_read_by_sweeping_runners_only(kind, methods, read):
    # scatter and train-net run at one point, and must not drop the rest of a grid
    ExperimentConfig(kind=kind, seed=1, methods=methods, snr_db=(5.0,))
    if read:
        assert ExperimentConfig(kind=kind, seed=1, methods=methods,
                                snr_db=(5.0, 25.0)).snr_db == (5.0, 25.0)
        return
    with pytest.raises(ConfigError, match="one snr_db point"):
        ExperimentConfig(kind=kind, seed=1, methods=methods, snr_db=(5.0, 25.0))
    with pytest.raises(ConfigError, match="one snr_db point"):
        parse_config(f"kind = {kind}\nseed = 1\nsnr_db = 5, 25\n")


def test_pilot_power_forms():
    base = dict(kind="ldpc-ber", seed=1, users=2, antennas=2, power=2.0,
                methods=("gnnd",))
    assert pilot_power_value(ExperimentConfig(**base, pilot_power="perfect")) == "perfect"
    assert pilot_power_value(ExperimentConfig(**base, pilot_power="16P")) == 32.0
    assert pilot_power_value(ExperimentConfig(**base, pilot_power="4p")) == 8.0
    assert pilot_power_value(ExperimentConfig(**base, pilot_power="0.5")) == 0.5
    with pytest.raises(ConfigError):
        ExperimentConfig(**base, pilot_power="junk")
    with pytest.raises(ConfigError):
        ExperimentConfig(**base, pilot_power="-3P")


def test_paper_scale_overrides():
    cfg = ExperimentConfig(kind="ldpc-ber", seed=1, users=2, antennas=2,
                           methods=("gnnd",))
    big = apply_paper_scale(cfg)
    assert big.net_samples == 400_000
    assert big.net_epochs == 100
    assert big.net_batch == 2000
    assert big.draws == 50
    assert big.seed == cfg.seed


def test_echo_is_stable_and_complete():
    cfg = parse_config(GOOD)
    echo = config_echo(cfg)
    assert any(line == "seed = 7" for line in echo)
    assert any(line.startswith("snr_db = 0.0,5.0,10.0") for line in echo)
    assert echo == sorted(echo)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_committed_config_names_a_subcommand(path):
    cfg = load_config(path)
    assert build_parser().parse_args([cfg.kind, "--config", str(path)]).command == cfg.kind


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_committed_config_reparses_from_its_echo(path):
    # a CSV header echoes every field, so the run is reproducible from it alone
    cfg = load_config(path)
    assert parse_config("\n".join(config_echo(cfg))) == cfg


def test_bool_parsing():
    cfg = parse_config("kind = ldpc-ber\nseed = 1\nnet = on\nmethods = gnnd\n")
    assert cfg.net is True
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("kind = ldpc-ber\nseed = 1\nnet = maybe\n")
