import json

import pytest

from bankftl.cli import main


def test_run_custom_workload(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--profile", "tiny", "--clients", "2", "--region", "16",
               "--rounds", "2", "--policy", "PLLGC", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "elapsed_s:" in printed
    assert (out / "latency.csv").exists()
    assert (out / "summary.txt").exists()
    assert (out / "report.json").exists()


def test_preset_prints_bundle(capsys):
    rc = main(["preset", "npgc-vs-pllgc", "--seed", "2"])
    assert rc == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["profile"] == "desk8"
    assert bundle["policy"]["max_gc_threads"] == 1
    assert bundle["alt_policy"]["kind"] == "NPGC"
    assert bundle["geometry"]["blocks_per_bank"] == 64
    assert bundle["workload"]["rounds"] == 16


def test_inject_aging_then_run_from_image(tmp_path, capsys):
    image = str(tmp_path / "aged.img")
    rc = main(["inject-aging", "--image", image, "--profile", "tiny",
               "--free-mean", "8", "--free-spread", "2",
               "--valid-mean", "3", "--valid-spread", "1", "--seed", "4"])
    assert rc == 0
    assert "lpns mapped" in capsys.readouterr().out
    out = tmp_path / "run-out"
    rc = main(["run", "--profile", "tiny", "--image", image, "--clients", "1",
               "--region", "24", "--rounds", "2", "--out", str(out)])
    assert rc == 0
    summary = (out / "summary.txt").read_text()
    assert "request_errors: 0" in summary


def test_aging_an_image_that_holds_data_is_refused_and_leaves_it(tmp_path,
                                                                capsys):
    image = tmp_path / "aged.img"
    args = ["inject-aging", "--image", str(image), "--profile", "tiny",
            "--free-mean", "8", "--free-spread", "2",
            "--valid-mean", "3", "--valid-spread", "1", "--seed", "4"]
    assert main(args) == 0
    aged = image.read_bytes()
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "aging needs an empty mapping" in err and "Traceback" not in err
    assert image.read_bytes() == aged


def test_aging_with_no_valid_page_exits_2_and_leaves_no_image(tmp_path,
                                                            capsys):
    image = tmp_path / "aged.img"
    rc = main(["inject-aging", "--image", str(image), "--profile", "tiny",
               "--valid-mean", "0", "--valid-spread", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no valid page" in err and "Traceback" not in err
    assert not image.exists()


@pytest.mark.parametrize("policy", ["PLLGC", "PLLGC_ADAPTIVE"])
def test_run_without_a_collector_is_reported_with_status_2(tmp_path, capsys,
                                                           policy):
    rc = main(["run", "--profile", "tiny", "--policy", policy,
               "--gc-threads", "0", "--region", "400", "--rounds", "6",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "max_gc_threads" in err


def test_run_with_engine_config_file(tmp_path, capsys):
    conf = tmp_path / "engine.conf"
    conf.write_text("num_queues = 2\nnum_buffers = 4\ncpu_us = 12\n")
    out = tmp_path / "out"
    rc = main(["run", "--profile", "tiny", "--config", str(conf),
               "--clients", "1", "--region", "8", "--out", str(out)])
    assert rc == 0
    assert "elapsed_s:" in capsys.readouterr().out


@pytest.mark.parametrize("line, named", [("num_queues = eight", "num_queues"),
                                         ("daemon_tick_us = 0", "daemon_tick_us"),
                                         ("gc_reserve_blocks = -1",
                                          "gc_reserve_blocks")])
def test_bad_engine_config_file_is_reported_with_status_2(tmp_path, capsys,
                                                         line, named):
    conf = tmp_path / "engine.conf"
    conf.write_text(line + "\n")
    rc = main(["run", "--profile", "tiny", "--config", str(conf),
               "--clients", "1", "--region", "8", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and named in err
    assert "Traceback" not in err


def test_report_reemits_from_json(tmp_path, capsys):
    out1 = tmp_path / "first"
    main(["run", "--profile", "tiny", "--clients", "1", "--region", "8",
          "--out", str(out1)])
    capsys.readouterr()
    out2 = tmp_path / "second"
    rc = main(["report", "--json", str(out1 / "report.json"),
               "--out", str(out2)])
    assert rc == 0
    assert (out2 / "latency.csv").read_text() == (out1 / "latency.csv").read_text()
    assert (out2 / "summary.txt").read_text() == (out1 / "summary.txt").read_text()
