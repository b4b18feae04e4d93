import numpy as np
import pytest

from gnndsim.cli import main
from gnndsim.mmse_net import load_model, predict


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_gmi_sweep_cli_writes_csv(tmp_path):
    cfg = _write(tmp_path / "c.cfg", """
kind = gmi-sweep
seed = 3
users = 1
antennas = 1
snr_db = 10
methods = gnnd, mi
draws = 1
samples = 1000
""")
    out = tmp_path / "r.csv"
    assert main(["gmi-sweep", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert "instance_id,K,L,snr_db,method" in text
    assert "# seed = 3" in text


def test_cli_seed_override_changes_output(tmp_path):
    cfg = _write(tmp_path / "c.cfg",
                 "kind = gmi-sweep\nseed = 3\nsnr_db = 5\nsamples = 500\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["gmi-sweep", "--config", cfg, "--out", str(out1)])
    main(["gmi-sweep", "--config", cfg, "--out", str(out2), "--seed", "4"])
    a = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    b = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
    assert a != b


def test_cli_kind_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", "kind = scatter\nseed = 1\nsamples = 10\n")
    with pytest.raises(SystemExit) as exc:
        main(["gmi-sweep", "--config", cfg])
    assert exc.value.code == 2
    assert capsys.readouterr().err == ("gnndsim: error: config is for kind 'scatter', "
                                       "but subcommand 'gmi-sweep' was invoked\n")


def test_cli_train_net_without_output_path(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", "kind = train-net\nseed = 1\nsnr_db = 9\n")
    with pytest.raises(SystemExit) as exc:
        main(["train-net", "--config", cfg])
    assert exc.value.code == 2
    assert capsys.readouterr().err == ("gnndsim: error: train-net requires an output "
                                       "path (--out or out =)\n")


def test_cli_rejects_unknown_key(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", "kind = gmi-sweep\nseed = 1\nwat = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["gmi-sweep", "--config", cfg])
    assert exc.value.code == 2
    assert "unknown key 'wat'" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, flags, match", [
    # rejected in the file, or by an override of a valid file
    ("scatter", "threads = 2\n", [], "threads is not read by scatter"),
    ("scatter", "", ["--threads", "2"], "threads is not read by scatter"),
    ("train-net", "snr_db = 5, 25\n", [], "one snr_db point"),
    ("scatter", "snr_db = 5, 25\n", [], "one snr_db point"),
], ids=["threads-in-file", "threads-override", "train-net-grid", "scatter-grid"])
def test_cli_reports_config_error_as_usage_error(tmp_path, capsys, command, text, flags,
                                                 match):
    cfg = _write(tmp_path / "c.cfg", f"kind = {command}\nseed = 1\nsamples = 10\n{text}")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("gnndsim: error: ") and match in err
    assert err.count("\n") == 1  # one line, no traceback


def test_scatter_cli(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", """
kind = scatter
seed = 2
users = 2
antennas = 2
snr_db = 15
samples = 50
""")
    assert main(["scatter", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "true_re,true_im,gnnd_re,gnnd_im,lmmse_re,lmmse_im"
    assert len(out.splitlines()) == 51


def test_scatter_cli_stdout_rows_equal_file_rows(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", "kind = scatter\nseed = 5\nusers = 3\nantennas = 2\n"
                                     "snr_db = 12\nsamples = 40\n")
    out = tmp_path / "s.csv"
    assert main(["scatter", "--config", cfg]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 0
    written = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(printed) == 41
    assert printed == written


def test_viterbi_cli(tmp_path):
    cfg = _write(tmp_path / "c.cfg", """
kind = viterbi-ber
seed = 2
users = 2
antennas = 2
receiver = sic
methods = gnnd, ml
snr_db = 20
blocks = 3
min_errors = 5
info_bits = 16
""")
    out = tmp_path / "v.csv"
    assert main(["viterbi-ber", "--config", cfg, "--out", str(out)]) == 0
    header = next(l for l in out.read_text().splitlines() if not l.startswith("#"))
    assert header.startswith("kind,K,L,snr_db,method,receiver,pilot_power,user")


def test_train_net_cli(tmp_path):
    cfg = _write(tmp_path / "c.cfg", """
kind = train-net
seed = 2
users = 2
antennas = 2
snr_db = 9
net_samples = 2000
net_epochs = 1
net_batch = 200
""")
    out = tmp_path / "model"
    assert main(["train-net", "--config", cfg, "--out", str(out)]) == 0
    model = load_model(f"{out}.user1.npz")
    assert model.sizes == [4, 200, 100, 50, 2]
    assert np.all(np.isfinite(predict(model, np.zeros((2, 3), dtype=complex))))


def test_paper_scale_flag_applies(tmp_path, monkeypatch):
    # paper scale swaps in the full-scale sampling defaults; shrink them here
    # so the test exercises the flag without the full-scale runtime
    import gnndsim.config as config_mod
    monkeypatch.setattr(config_mod, "PAPER_SCALE_OVERRIDES",
                        dict(draws=2, samples=300))
    cfg = _write(tmp_path / "c.cfg",
                 "kind = gmi-sweep\nseed = 1\nsnr_db = 5\nsamples = 200\ndraws = 1\n")
    out = tmp_path / "r.csv"
    main(["gmi-sweep", "--config", cfg, "--out", str(out), "--paper-scale"])
    text = out.read_text()
    assert "# draws = 2" in text
    assert "# samples = 300" in text
