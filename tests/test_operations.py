"""The operation table pinned from outside: digests, bytes and surfaces.

The batch CLI, the daemon and the ``repro client`` CLI all derive from
:data:`repro.operations.OPERATIONS`, so comparing one surface with
another cannot catch a change in the shared code.  These tests pin what
the shared code must keep producing: the ``job_digest`` of one job per
kind (daemon job ids embed ``digest[:8]``), the SHA-256 of the batch
CLI's output for the demo program, and every operation's bytes through
``repro client`` against a live in-thread daemon.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from repro.annotate import AnnotationPolicy
from repro.classify import dumps_model, extract_features, label_program, train_model
from repro.cli import main
from repro.isa import assemble
from repro.profiling import read_profile
from repro.service import api
from repro.service.engine import ServiceEngine
from repro.service.server import ServiceServer

DEMO_SOURCE = """
int t[8];
void main() {
    int i;
    int total;
    total = 0;
    for (i = 0; i < 8; i = i + 1) {
        t[i] = in() * 2;
        total = total + t[i];
    }
    out(total);
}
"""

INPUTS_A = "1,2,3,4,5,6,7,8"
INPUTS_B = "8,7,6,5,4,3,2,1"

JOBS = {
    "compile-default": api.CompileJob(source="void main() { out(1); }"),
    "compile-custom": api.CompileJob(
        source="void main() { out(2); }", name="demo", optimize=False
    ),
    "trace-default": api.TraceJob(program=".text\n"),
    "trace-custom": api.TraceJob(
        program=".text\n", name="t", inputs=(1, 2.5, -3), max_instructions=100
    ),
    "profile-default": api.ProfileJob(program=".text\n"),
    "profile-custom": api.ProfileJob(
        program=".text\n", name="p", input_sets=((1, 2), (), (3.5,)),
        max_instructions=5000, sample_every=3,
    ),
    "annotate-default": api.AnnotateJob(
        program=".text\n", profile="# repro-profile-image v1\n"
    ),
    "annotate-custom": api.AnnotateJob(
        program=".text\n", profile="# repro-profile-image v1\n", name="a",
        accuracy_threshold=80.0, stride_threshold=40.0,
    ),
    "experiment-default": api.ExperimentJob(experiment="fig-5.1"),
    "experiment-custom": api.ExperimentJob(
        experiment="table-5.2", scale=0.5, training_runs=3
    ),
    "fuse-default": api.FuseJob(profiles=("# repro-profile-image v1\n",)),
    "fuse-custom": api.FuseJob(
        profiles=("# repro-profile-image v1\n", "UkVQUk8="), name="fleet",
        require_common=True,
    ),
    "classify-default": api.ClassifyJob(program=".text\n", model="m"),
    "classify-custom": api.ClassifyJob(program=".text\n", model="m", name="c"),
}

# Recorded before the operation table replaced the hand-written job
# classes; a change here changes every daemon job id.
PINNED_JOB_DIGESTS = {
    "compile-default": "0bebf7dc1e8d517a9d167bb0e6ce1786f57996e262d57ea9d05205d3a69ae87c",
    "compile-custom": "097bdc17e12a11ceaad1d67c4be2a10d61a036fafdbd3bcb4aecd5e8f7686ccf",
    "trace-default": "93bc0048f916b15fdc822fc6231380dc8cedc4875b73d866192b2072c30e20bd",
    "trace-custom": "e899c676a733078b4f239e47790785a3cd887b8ee922cd4ea25a188cc2e00205",
    "profile-default": "ab6ce21c3c9dc2165bb00e637ddb1b9fbdbd193bac22c16c6fa110208dbca5f1",
    "profile-custom": "4a7a3961db8b1eac0fe0bff8ec0c2010f9e403831ef345f5abb9939629dece1e",
    "annotate-default": "14bf5156544767d93678d9a0f62780839b98d7ff00f4f43e305ee50f9cf84109",
    "annotate-custom": "eaa82a8cefdd28c8e6605450f91fe48055f3db9b71de7d78a5a670520c774f78",
    "experiment-default": "621c85a63a084119a7398d64cfab99c8ee299a97adf0e1f7f23a56f2a062cfc9",
    "experiment-custom": "6ecbf1ac518c60f6744a4997609cee596b5f8fcd8d256779ee9c181dec542f81",
    "fuse-default": "013969e32777fdfe2e4a371a239a9de599f4134a43ee8301e9f16e350ae8a7c7",
    "fuse-custom": "8d90cfb06c2bac5c125165c54ecc94414299c1c8be59d880000df4bba8a53297",
    "classify-default": "180b944d6089f066b9e547eceefcafea397c209be89eb331ec9699592cb908b3",
    "classify-custom": "327949060644d4b69384dc08f0ac7d3b4f544e9fad931649133abd2850083c58",
}

# SHA-256 of ``json.dumps(SubmitRequest(job).to_dict())``: the exact bytes
# a client puts on the wire, key order included.
PINNED_WIRE_DIGESTS = {
    "compile-default": "6b4bc6b2ca0b96c3cbadc48ebe0036f1f4977d1cfdf4bf80c0cb7cc22ef206ec",
    "compile-custom": "0081d759e1569bb02e21f2fc261afa678a834fc7e36ed306e27bddedd6f9d3a2",
    "trace-default": "2df0759d52723ce8ffc1406728fe4fa757ffe0e82c1ad904e937c81702dec156",
    "trace-custom": "a7f374eb2c24cd445d467ee8ff9e61c76113a5cbb7579814e73606e449d37d4b",
    "profile-default": "6987a01a4ff26c2e9ab1a492c2df82982d26903f06786ffcf275fad3f1686cbf",
    "profile-custom": "1402575184ded306d96a8f07d0ed2af5f17b72d6c78978f9482d3d70812c5721",
    "annotate-default": "e04ad413ba9ed38fb6bd3115b1e2b11040e3e96c15d87ecfbe71ba3c275664f6",
    "annotate-custom": "54bdf74dc92f3a7f51c850c5a15e129a28fd72e60ab62047b00534da271ca12e",
    "experiment-default": "010817a6684bb85dcc07fc178d11b9a74264caf1f6b9e7d8533473036c4b6ffc",
    "experiment-custom": "0db89308127e19a35474b4d01d698dd63a3001ed4899f5091bffbe258b1c9e73",
    "fuse-default": "e1e7eceae4027fb8f8c2ccfc0401d3117c4f0f873f04f5b7c1aafa8c9938db17",
    "fuse-custom": "6c6871c9c2b0f505c968f28e0088a1f6652e11eedef9f95e72c16ff0598974a7",
    "classify-default": "d9e41e095c5d4d4918ce35cf3035d7c14ade283d4ad94056b8cac734c2ec2a34",
    "classify-custom": "6c182710d4d9d8dccf176c7425b673555de93052755311566ab1c475cb0d8958",
}

# SHA-256 of the batch CLI's stdout / ``-o`` bytes for the demo program,
# recorded before the operation table existed (see ``demo`` below for
# the exact commands).
PINNED_CLI_DIGESTS = {
    "compile": "f57a6de9ceaeedb2eb0d07b0ebe356070cfc06e4cc56a369bef28755d3bba77b",
    "profile": "df6cc9c71778e9850966f90936040ecd792c1eb5f6d74dafe05681827466f05e",
    "trace": "9f2a86c9ba99cfbe6cc0e9182b701f635603a5aec4c3550d2765e8c79dd7ceac",
    "annotate": "0c4b4689d348ae7795368d17e83bbfe98bef700a8677a11aeffdbd73add61a60",
    "fuse": "f45c2c4b98daef6471b90ff157302fa0035d025b1a5fba39844c17c0f70fb84e",
    "fuse-common": "2f624263e1cecadd53bc9e861f7771aad88c97e81ec732880c88f0a32c2b6e91",
    "model": "2a88d9bf72b04eed667c5a9b18adcf0e067f019c102d95d88632f7d3c10ecb68",
    "classify": "6b206d99012edb1e451f7852cb4d333509cccac405d627acd9c77149268413b2",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_of(argv) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main([str(arg) for arg in argv]) == 0, argv
    return buffer.getvalue().encode("utf-8")


class TestPinnedJobs:
    @pytest.mark.parametrize("key", sorted(JOBS))
    def test_job_digest(self, key):
        job = JOBS[key]
        assert api.job_digest(job) == PINNED_JOB_DIGESTS[key]
        decoded = api.job_from_dict(json.loads(json.dumps(job.to_dict())))
        assert api.job_digest(decoded) == PINNED_JOB_DIGESTS[key]

    @pytest.mark.parametrize("key", sorted(JOBS))
    def test_wire_bytes(self, key):
        wire = json.dumps(api.SubmitRequest(job=JOBS[key]).to_dict())
        assert sha256(wire.encode("utf-8")) == PINNED_WIRE_DIGESTS[key]


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The demo program's artifacts, built through the batch CLI."""
    d = tmp_path_factory.mktemp("demo")
    (d / "demo.mc").write_text(DEMO_SOURCE, encoding="utf-8")
    main(["compile", str(d / "demo.mc"), "-o", str(d / "demo.asm")])
    main(["profile", str(d / "demo.asm"), "--inputs", INPUTS_A,
          "--inputs", INPUTS_B, "-o", str(d / "demo.profile")])
    main(["profile", str(d / "demo.asm"), "--inputs", INPUTS_A,
          "-o", str(d / "a.profile")])
    main(["profile", str(d / "demo.asm"), "--inputs", INPUTS_B,
          "--sample-every", "3", "-o", str(d / "b.profile")])
    # A model trained on the demo program's own labels: small and
    # byte-deterministic, enough to drive ``classify predict``.
    program = assemble((d / "demo.asm").read_text(encoding="utf-8"), name="demo")
    features = extract_features(program)
    labels = label_program(
        program, read_profile(d / "demo.profile"),
        AnnotationPolicy(accuracy_threshold=80.0),
    )
    rows = [(features[address], labels[address]) for address in sorted(labels)]
    (d / "model.json").write_text(
        dumps_model(train_model(rows, seed=1997)), encoding="utf-8"
    )
    return d


class TestPinnedCliBytes:
    def test_compile(self, demo):
        assert sha256(stdout_of(["compile", demo / "demo.mc"])) == \
            PINNED_CLI_DIGESTS["compile"]
        assert sha256((demo / "demo.asm").read_bytes()) == PINNED_CLI_DIGESTS["compile"]

    def test_profile_two_input_sets(self, demo):
        out = stdout_of(["profile", demo / "demo.asm", "--inputs", INPUTS_A,
                         "--inputs", INPUTS_B])
        assert sha256(out) == PINNED_CLI_DIGESTS["profile"]
        assert sha256((demo / "demo.profile").read_bytes()) == \
            PINNED_CLI_DIGESTS["profile"]

    def test_trace(self, demo, tmp_path):
        target = tmp_path / "demo.trace"
        assert main(["trace", str(demo / "demo.asm"), "--inputs", INPUTS_A,
                     "-o", str(target)]) == 0
        assert sha256(target.read_bytes()) == PINNED_CLI_DIGESTS["trace"]

    def test_annotate(self, demo):
        out = stdout_of(["annotate", demo / "demo.asm", demo / "demo.profile",
                         "--threshold", "80"])
        assert sha256(out) == PINNED_CLI_DIGESTS["annotate"]

    def test_fuse(self, demo):
        out = stdout_of(["fuse", demo / "a.profile", demo / "b.profile"])
        assert sha256(out) == PINNED_CLI_DIGESTS["fuse"]
        out = stdout_of(["fuse", demo / "*.profile", "--require-common"])
        assert sha256(out) == PINNED_CLI_DIGESTS["fuse-common"]

    def test_classify_predict(self, demo):
        assert sha256((demo / "model.json").read_bytes()) == PINNED_CLI_DIGESTS["model"]
        out = stdout_of(["classify", "predict", demo / "model.json", demo / "demo.asm"])
        assert sha256(out) == PINNED_CLI_DIGESTS["classify"]


# -- repro client X == repro X ----------------------------------------------


@pytest.fixture(scope="module")
def client(tmp_path_factory):
    """``repro client`` argv for a live in-thread daemon.

    Every request carries its own timeout, so a stuck daemon fails the
    test instead of hanging the run.
    """
    server = ServiceServer(
        engine=ServiceEngine(store_dir=tmp_path_factory.mktemp("traces")), workers=2
    )
    thread = server.run_in_thread()
    argv = ["client", "--port", str(server.port), "--timeout", "60"]
    yield argv
    if server.report is None:
        with contextlib.redirect_stdout(io.StringIO()):
            main([*argv, "shutdown"])
    thread.join(timeout=30)
    assert not thread.is_alive()


CLIENT_CASES = {
    "compile": ["compile", "{d}/demo.mc", "--no-optimize"],
    "trace": ["trace", "{d}/demo.asm", "--inputs", INPUTS_A, "--inputs", INPUTS_B,
              "--max-instructions", "100000"],
    "profile": ["profile", "{d}/demo.asm", "--inputs", INPUTS_A, "--inputs", INPUTS_B,
                "--sample-every", "2"],
    "annotate": ["annotate", "{d}/demo.asm", "{d}/demo.profile", "--threshold", "80",
                 "--stride-threshold", "40"],
    "fuse": ["fuse", "{d}/a.profile", "{d}/b.profile", "--require-common"],
}


class TestClientCli:
    @pytest.mark.parametrize("kind", sorted(CLIENT_CASES))
    def test_client_matches_batch_stdout(self, demo, client, kind, tmp_path):
        argv = [arg.format(d=demo) for arg in CLIENT_CASES[kind]]
        via_client = tmp_path / "client.out"
        assert main([*client, *argv, "-o", str(via_client)]) == 0
        if kind == "trace":
            # The batch trace command writes a file only.
            batch = tmp_path / "batch.out"
            assert main([*argv, "-o", str(batch)]) == 0
            expected = batch.read_bytes()
        else:
            expected = stdout_of(argv)
        assert via_client.read_bytes() == expected
        assert stdout_of([*client, *argv]) == expected

    def test_client_classify_matches_batch_predict(self, demo, client):
        argv = [demo / "model.json", demo / "demo.asm"]
        expected = stdout_of(["classify", "predict", *argv])
        assert sha256(expected) == PINNED_CLI_DIGESTS["classify"]
        assert stdout_of([*client, "classify", *argv]) == expected

    def test_client_experiment_matches_runner_table(self, client):
        from repro.experiments.context import ExperimentContext
        from repro.experiments.runner import run_experiments

        # learned-classifier is the cheapest experiment whose table still
        # depends on both --scale and --training-runs.
        tables = run_experiments(
            ["learned-classifier"], ExperimentContext(scale=0.05, training_runs=2),
            stream=io.StringIO(),
        )
        out = stdout_of([*client, "experiment", "learned-classifier",
                         "--scale", "0.05", "--training-runs", "2"])
        assert out == tables[0].format().encode("utf-8")

    def test_client_rejects_what_batch_rejects(self, demo, client, capsys):
        argv = ["profile", str(demo / "demo.asm"), "--sample-every", "0"]
        assert main(argv) == 2
        assert "'sample_every' must be an int > 0" in capsys.readouterr().err
        assert main([*client, *argv]) == 1
        assert "error [invalid-job]" in capsys.readouterr().err
