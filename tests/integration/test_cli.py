"""Tests for the command-line interface (gen-trace / train / classify)."""

import json
import struct

import pytest

import repro.cli
from repro.cli import _key_to_str, _str_to_key, build_parser, main
from repro.core.classifier import IustitiaClassifier
from repro.ingest import PcapFileSource
from repro.ml.persistence import load_classifier
from repro.net.ethernet import EthernetHeader
from repro.net.flow import FlowKey
from repro.net.pcap import LINKTYPE_ETHERNET, read_pcap, write_pcap


class TestKeySerialization:
    def test_round_trip(self):
        key = FlowKey("10.1.2.3", 4444, "192.168.0.9", 80, 6)
        assert _str_to_key(_key_to_str(key)) == key

    def test_udp_round_trip(self):
        key = FlowKey("1.1.1.1", 53, "2.2.2.2", 33333, 17)
        assert _str_to_key(_key_to_str(key)) == key


class TestGenTrace:
    def test_writes_pcap_and_labels(self, tmp_path, capsys):
        pcap = tmp_path / "out.pcap"
        labels = tmp_path / "labels.json"
        code = main([
            "gen-trace", str(pcap), "--flows", "20", "--duration", "10",
            "--seed", "5", "--labels", str(labels),
        ])
        assert code == 0
        packets = read_pcap(pcap)
        assert packets
        truth = json.loads(labels.read_text())
        assert len(truth) == 20
        assert set(truth.values()) <= {"text", "binary", "encrypted"}
        out = capsys.readouterr().out
        assert "wrote" in out


class TestBadArguments:
    """A setting the library rejects is one ``error:`` line and exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen-trace", "x.pcap", "--flows", "0"], "n_flows must be >= 1"),
            (["gen-trace", "x.pcap", "--flows", "-3"], "n_flows must be >= 1"),
            (["gen-trace", "x.pcap", "--headers", "1.5"], "app_header_probability"),
            (["gen-trace", "x.pcap", "--duration", "0"], "duration must be positive"),
            (["train", "m.json", "--per-class", "0"], "per_class must be >= 1"),
            (["train", "m.json", "--buffer", "2"], "buffer_size 2 cannot hold"),
        ],
        ids=["flows-0", "flows-negative", "headers", "duration", "per-class", "buffer"],
    )
    def test_reported_not_raised(self, tmp_path, capsys, argv, message):
        command, output, *knobs = argv
        assert main([command, str(tmp_path / output), *knobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / output).exists()


class TestTrainAndClassify:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli")
        model = tmp / "model.json"
        pcap = tmp / "traffic.pcap"
        labels = tmp / "labels.json"
        assert main([
            "train", str(model), "--model", "cart", "--buffer", "32",
            "--per-class", "20", "--seed", "3",
        ]) == 0
        assert main([
            "gen-trace", str(pcap), "--flows", "25", "--duration", "10",
            "--seed", "9", "--labels", str(labels),
        ]) == 0
        return model, pcap, labels

    def test_train_saves_loadable_classifier(self, artifacts):
        model, _, _ = artifacts
        loaded = load_classifier(model)
        assert isinstance(loaded, IustitiaClassifier)
        assert loaded.buffer_size == 32

    def test_saved_model_is_plain_json(self, artifacts):
        model, _, _ = artifacts
        payload = json.loads(model.read_text())
        assert payload["format"] == "repro/iustitia"

    def test_classify_prints_flows(self, artifacts, capsys):
        model, pcap, labels = artifacts
        assert main(["classify", str(model), str(pcap),
                     "--labels", str(labels)]) == 0
        out = capsys.readouterr().out
        assert "accuracy vs ground truth" in out
        assert "flows classified" in out

    def test_classify_writes_json(self, artifacts, tmp_path, capsys):
        model, pcap, _ = artifacts
        out_json = tmp_path / "results.json"
        assert main(["classify", str(model), str(pcap),
                     "--json", str(out_json)]) == 0
        results = json.loads(out_json.read_text())
        assert results
        assert {"flow", "nature", "classified_at", "buffered_bytes"} <= set(
            results[0]
        )

    def test_classify_writes_metrics_exposition(
        self, artifacts, tmp_path, capsys
    ):
        from repro.obs import validate_text

        model, pcap, _ = artifacts
        metrics = tmp_path / "metrics.prom"
        assert main(["classify", str(model), str(pcap),
                     "--metrics", str(metrics)]) == 0
        text = metrics.read_text()
        assert validate_text(text) > 0
        assert "engine_classification_delay_seconds" in text
        assert "wrote telemetry exposition" in capsys.readouterr().out

    def test_classify_with_incremental_extractor(self, artifacts, capsys):
        model, pcap, labels = artifacts
        assert main(["classify", str(model), str(pcap),
                     "--labels", str(labels),
                     "--extractor", "incremental"]) == 0
        out = capsys.readouterr().out
        assert "flows classified" in out

    def test_classify_extractor_labels_match_batch(
        self, artifacts, tmp_path, capsys
    ):
        model, pcap, _ = artifacts
        natures = {}
        for extractor in ("batch", "incremental"):
            out_json = tmp_path / f"results-{extractor}.json"
            assert main(["classify", str(model), str(pcap),
                         "--json", str(out_json),
                         "--extractor", extractor]) == 0
            results = json.loads(out_json.read_text())
            natures[extractor] = {r["flow"]: r["nature"] for r in results}
        # The synthetic trace carries no app headers, so stripping is a
        # no-op on the batch side and the two pipelines see identical
        # windows.
        assert natures["batch"] == natures["incremental"]

    def test_classify_rejects_non_model_file(self, artifacts, tmp_path, capsys):
        _, pcap, _ = artifacts
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"not": "a model"}))
        assert main(["classify", str(bogus), str(pcap)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: path.write_text("not a pcap, just some text\n"),
            lambda path: path.write_bytes(b"\xa1\xb2\xc3\xd4\x00\x02"),
            lambda path: None,  # never created
        ],
        ids=["bad-magic", "truncated-header", "missing"],
    )
    def test_classify_rejects_unreadable_capture(
        self, artifacts, tmp_path, capsys, damage
    ):
        model, _, _ = artifacts
        capture = tmp_path / "junk.pcap"
        damage(capture)
        assert main(["classify", str(model), str(capture)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read capture {capture}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "what, damage",
        [
            ("model", lambda path: None),  # never created
            ("labels", lambda path: None),
            ("labels", lambda path: path.write_text("{not json")),
            ("labels", lambda path: path.write_text('["a"]')),
            ("labels", lambda path: path.write_text('{"10.0.0.1:80": "text"}')),
            (
                "labels",
                lambda path: path.write_text(
                    '{"10.0.0.1:1234>10.0.0.2:80/6": "compressed"}'
                ),
            ),
        ],
        ids=[
            "missing-model", "missing-labels", "labels-not-json",
            "labels-not-object", "labels-bad-key", "labels-unknown-nature",
        ],
    )
    def test_classify_rejects_unreadable_model_or_labels(
        self, artifacts, tmp_path, capsys, what, damage
    ):
        model, pcap, _ = artifacts
        broken = tmp_path / f"broken-{what}.json"
        damage(broken)
        if what == "model":
            argv = ["classify", str(broken), str(pcap)]
        else:
            argv = ["classify", str(model), str(pcap), "--labels", str(broken)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {what} {broken}: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""  # refused before any engine ran

    @pytest.mark.parametrize(
        "option, target, message",
        [
            ("--labels", "foreign.json", "cannot score against labels"),
            ("--json", "absent/results.json", "cannot write flow labels"),
            ("--metrics", "absent/metrics.prom", "cannot write metrics"),
        ],
        ids=["labels-from-another-capture", "json-dir-missing",
             "metrics-dir-missing"],
    )
    def test_classify_reports_failures_after_the_run(
        self, artifacts, tmp_path, capsys, option, target, message
    ):
        model, pcap, _ = artifacts
        path = tmp_path / target
        if option == "--labels":
            # Well-formed ground truth for a flow this capture does not hold.
            path.write_text('{"10.9.9.9:1234>10.9.9.8:80/6": "text"}')
        assert main(["classify", str(model), str(pcap), option, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message} {path}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_classify_supervised_matches_plain_run(self, artifacts, capsys):
        model, pcap, _ = artifacts
        assert main(["classify", str(model), str(pcap)]) == 0
        plain = capsys.readouterr()
        assert main(["classify", str(model), str(pcap),
                     "--on-error", "degrade", "--max-retries", "2"]) == 0
        supervised = capsys.readouterr()
        assert " -> " in plain.out
        assert supervised.out == plain.out
        assert supervised.err == plain.err  # no restarts, nothing absorbed

    def test_classify_restart_reports_decode_stats_once(
        self, artifacts, tmp_path, capsys, monkeypatch
    ):
        # An Ethernet capture whose first record is an ARP frame: every
        # pass re-decodes (and skips) it, and a restart must not report
        # it twice.
        model, pcap, _ = artifacts
        capture = tmp_path / "arp-first.pcap"
        write_pcap(capture, read_pcap(pcap), linktype=LINKTYPE_ETHERNET)
        arp = EthernetHeader(ethertype=0x0806).to_bytes() + bytes(28)
        raw = capture.read_bytes()
        capture.write_bytes(
            raw[:24] + struct.pack("!IIII", 0, 0, len(arp), len(arp)) + arp
            + raw[24:]
        )
        assert main(["classify", str(model), str(capture)]) == 0
        plain = capsys.readouterr()

        class FailsOnceMidFile(PcapFileSource):
            failed = False

            def __iter__(self):
                for index, packet in enumerate(super().__iter__()):
                    if index == 50 and not FailsOnceMidFile.failed:
                        FailsOnceMidFile.failed = True
                        raise OSError("flap")
                    yield packet

        monkeypatch.setattr(repro.cli, "PcapFileSource", FailsOnceMidFile)
        assert main(["classify", str(model), str(capture),
                     "--max-retries", "1"]) == 0
        supervised = capsys.readouterr()
        assert FailsOnceMidFile.failed
        assert supervised.out == plain.out

        def decode_line(err):
            return [line for line in err.splitlines()
                    if line.startswith("decode:")]

        assert decode_line(plain.err) == [
            "decode: 0 snaplen-truncated, 1 non-IPv4 frames skipped, "
            "0 undecodable"
        ]
        assert decode_line(supervised.err) == decode_line(plain.err)
        assert "supervision: 1 source restarts" in supervised.err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("gen-trace", "train", "classify"):
            # argparse raises on missing required positionals only at parse
            # time; supplying them must succeed.
            args = {
                "gen-trace": ["gen-trace", "x.pcap"],
                "train": ["train", "m.pkl"],
                "classify": ["classify", "m.pkl", "x.pcap"],
            }[command]
            namespace = parser.parse_args(args)
            assert callable(namespace.func)

    def test_unknown_runtime_rejected_at_parse(self, capsys):
        # There is one runtime, so the selection flags are gone: naming
        # any runtime (or a worker count) is an argparse error.
        for flags in (
            ["--runtime", "fiber"], ["--runtime", "thread"], ["--workers", "4"]
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(
                    ["classify", "m.json", "x.pcap", *flags]
                )
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["-1", "two"])
    def test_max_retries_must_be_a_non_negative_int(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["classify", "m.json", "x.pcap", "--max-retries", value]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --max-retries" in err
        assert "Traceback" not in err


class TestConsoleEntryPoint:
    """The installed ``iustitia`` script and ``python -m repro`` agree."""

    def test_pyproject_declares_iustitia_script(self):
        import pathlib
        import tomllib

        pyproject = pathlib.Path(__file__).parents[2] / "pyproject.toml"
        data = tomllib.loads(pyproject.read_text())
        assert data["project"]["scripts"]["iustitia"] == "repro.cli:main"

    def test_entry_point_and_dunder_main_share_one_main(self):
        # Both launchers must route through the same callable, so flag
        # behaviour can never diverge between `iustitia` and
        # `python -m repro`.
        import importlib

        import repro.cli

        dunder_main = importlib.import_module("repro.__main__")
        assert dunder_main.main is repro.cli.main
