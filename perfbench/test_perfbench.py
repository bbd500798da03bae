"""Self-tests of the benchmark.  Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import json
from collections import Counter

import corpus
import run
import spans
from spans import Span


def test_corpus_regenerates_byte_identical_and_seeds_are_disjoint():
    pairs = {}
    for seed in (corpus.PRIMARY_SEED, corpus.HELD_OUT_SEED):
        frozen = corpus.inputs(corpus.load(seed))
        assert corpus.dumps(corpus.draw(seed)) == corpus.dumps(frozen)
        pairs[seed] = {(it["h1"], it["h2"]) for items in frozen.values() for it in items}
    assert not pairs[corpus.PRIMARY_SEED] & pairs[corpus.HELD_OUT_SEED]


def test_wrong_class_tag_counts_as_failure():
    main = run.import_cli()
    item = next(it for it in corpus.load(corpus.PRIMARY_SEED)["build_l"] if it["expect"]["class"] == "class1")
    rc, out, err = corpus.run_op(main, corpus.op_argv("build_l", item))
    assert corpus.check(item, rc, out, err) == (None, False)

    doc = json.loads(out)
    doc["class"] = "class2"
    tampered = json.dumps(doc)

    def wrong_main(argv):
        print(tampered)
        return 0

    tally = run.Tally()
    run.one_pass(wrong_main, "build_l", [item, item], [], tally)
    assert (tally.attempted, tally.failed, len(tally.mismatches)) == (2, 2, 1)


def test_self_time_on_hand_built_span_tree():
    tree = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("construct.build_code", 1.0, 4.0, 0, 0),
        Span("gates.apply_gate", 2.0, 3.0, 1, 0),
        Span("simulate.verify_code", 5.0, 9.0, 0, 0),
        Span("gates.apply_gate", 5.0, 6.0, 3, 0),
        Span("gates.apply_gate", 5.5, 7.0, 3, 0),  # overlaps its sibling: covered once
        Span("cli.main", 20.0, 21.0, -1, 1),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 2.0, 1.0, 1.5, 1.0]
    metrics = spans.layer_metrics(tree, Counter(), 0)
    assert metrics["cli.self_s"] == {"value": 4.0, "unit": "s"}
    assert metrics["gates.apply_gate_s"]["value"] == 3.5
    assert metrics["gates.apply_gate_calls"] == {"value": 3, "unit": "count"}


def test_instrument_reaches_names_imported_elsewhere_and_restores_them():
    run.import_cli()
    from eaqconv import construct, gates
    from eaqconv.polymat import parse_matrix

    originals = (construct.apply_gate, gates.apply_gate, construct.build_code)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert construct.apply_gate is gates.apply_gate is not originals[0]
        h = parse_matrix(run.WARMUP["h1"])
        spec = construct.build_code(h, h)
    assert (construct.apply_gate, gates.apply_gate, construct.build_code) == originals
    counted = Counter(s.name for s in tracer.spans)
    assert counted["gates.apply_gate"] > 0 and counted["construct.build_code"] == 1
    assert tracer.counts["construct.encoder_gates"] == len(spec.encoder)


def test_benchmark_json_lists_every_layer_metric():
    with open(corpus.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert listed == {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}


def test_hd_median_weighs_ranks_symmetrically():
    assert abs(run.hd_median([0.5] * 24) - 0.5) < 1e-12
    assert abs(run.hd_median([3.0, 1.0, 2.0]) - 2.0) < 1e-12
    assert abs(run.hd_median([0.1] * 12 + [0.3] * 12) - 0.2) < 1e-12
