#!/usr/bin/env bash
# Full local CI gate: release build, test suite, experiment suite with
# JSON artifact validation, clippy with warnings denied. Everything runs
# --offline against the vendored dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace

echo "== cargo test -q --offline =="
cargo test -q --offline --workspace

echo "== exp --quick --json-dir artifacts --trace-dir artifacts/traces =="
rm -rf artifacts
./target/release/exp --quick --json-dir artifacts --trace-dir artifacts/traces > /dev/null

echo "== trace determinism: re-record with --threads 1 and diff =="
# E15 (record/replay mitigations) and E27 (pattern fuzzing fan-out) are
# the trace-writing experiments; both must produce byte-identical
# artifacts whatever the thread count. E27's artifacts include the
# fuzzer's top-pattern shapes (E27_top_patterns.jsonl), so ranking
# stability is gated here too.
rm -rf artifacts-replay
./target/release/exp --quick --only e15,e27 --threads 1 \
    --json-dir artifacts-replay --trace-dir artifacts-replay/traces > /dev/null
for trace in artifacts/traces/E15_*.trace.jsonl artifacts/traces/E27_*; do
    [ -f "$trace" ] || { echo "no E15/E27 trace artifacts recorded"; exit 1; }
    cmp "$trace" "artifacts-replay/traces/$(basename "$trace")" \
        || { echo "trace diverged across runs/threads: $trace"; exit 1; }
done
# The reports must also agree (wall_secs is the only timing-dependent key).
if command -v python3 > /dev/null; then
    python3 - <<'EOF'
import json, sys
for exp in ("E15", "E27"):
    a = json.load(open(f"artifacts/{exp}.json"))
    b = json.load(open(f"artifacts-replay/{exp}.json"))
    for doc in (a, b):
        doc.pop("wall_secs", None)
        doc.pop("threads", None)
        # Artifact paths differ by directory on purpose; compare basenames.
        doc["trace_artifacts"] = [p.rsplit("/", 1)[-1] for p in doc["trace_artifacts"]]
    if a != b:
        sys.exit(f"{exp} reports diverged between default-thread and --threads 1 runs")
print("trace determinism OK: E15/E27 traces and reports identical across thread counts")
EOF
else
    echo "trace determinism OK (python3 unavailable: report diff skipped)"
fi
rm -rf artifacts-replay

echo "== validate artifacts =="
if command -v python3 > /dev/null; then
    python3 - <<'EOF'
import json, pathlib, sys

artifacts = pathlib.Path("artifacts")
ids = {f"E{i}" for i in range(1, 28)}
seen = set()
for path in sorted(artifacts.glob("*.json")):
    doc = json.loads(path.read_text())  # dies here if malformed
    for key in ("schema_version", "id", "title", "paper_anchor", "tags",
                "scale", "seed", "threads", "wall_secs", "all_claims_pass",
                "tables", "series", "claims", "notes", "trace_artifacts"):
        if key not in doc:
            sys.exit(f"{path}: missing key {key!r}")
    if doc["schema_version"] != 1:
        sys.exit(f"{path}: unexpected schema_version {doc['schema_version']}")
    if not doc["all_claims_pass"]:
        sys.exit(f"{path}: claims failed")
    if not all(c["pass"] for c in doc["claims"]):
        sys.exit(f"{path}: per-claim flags contradict all_claims_pass")
    if not artifacts.joinpath(doc["id"] + ".csv").exists():
        sys.exit(f"{path}: missing CSV sibling")
    seen.add(doc["id"])
if seen != ids:
    sys.exit(f"artifact ids {sorted(seen)} != expected E1..E27")
print(f"artifacts OK: {len(seen)} experiments, all claims pass")
EOF
else
    # Fallback without python3: every id present and no claim failures.
    for i in $(seq 1 27); do
        [ -f "artifacts/E$i.json" ] || { echo "missing artifacts/E$i.json"; exit 1; }
        grep -q '"all_claims_pass": true' "artifacts/E$i.json" \
            || { echo "artifacts/E$i.json: claims failed"; exit 1; }
    done
    echo "artifacts OK (python3 unavailable: structural checks skipped)"
fi

echo "== mitigation registry: --list-mitigations golden =="
# The registry listing (names, defaults, ranges, help) is part of the
# public surface; drift must be deliberate. To update:
#   ./target/release/exp --list-mitigations > tests/golden/list_mitigations.txt
./target/release/exp --list-mitigations > artifacts-list-mitigations.txt
diff -u tests/golden/list_mitigations.txt artifacts-list-mitigations.txt \
    || { echo "mitigation registry listing drifted from tests/golden/list_mitigations.txt"; exit 1; }
rm -f artifacts-list-mitigations.txt
echo "mitigation registry listing matches its golden"

echo "== conformance: golden snapshot drift =="
# Compare a trace-free --quick artifact run (the configuration the
# snapshots were recorded in) against tests/golden. golden-diff
# normalizes run metadata and validates report structure; any drift in a
# paper number fails here with a field-level diff. Intentional changes:
#   UPDATE_GOLDEN=1 cargo test --offline --test conformance_golden
# then review the git diff of tests/golden/ (see TESTING.md).
rm -rf artifacts-golden
./target/release/exp --quick --json-dir artifacts-golden > /dev/null
./target/release/golden-diff tests/golden artifacts-golden/E*.json
rm -rf artifacts-golden

echo "== serve smoke: daemon round-trip, warm cache, golden agreement =="
# Start the serving daemon on an OS-picked port, submit E1+E15 twice,
# require the second round to be answered from cache, and hold the
# server-produced reports to the same golden snapshots as the batch path.
rm -rf artifacts-serve
mkdir -p artifacts-serve
./target/release/serve --listen 127.0.0.1:0 --workers 2 \
    --cache-dir artifacts-serve/cache --port-file artifacts-serve/port &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2> /dev/null || true' EXIT
for _ in $(seq 1 100); do
    [ -s artifacts-serve/port ] && break
    kill -0 "$SERVE_PID" 2> /dev/null || { echo "serve daemon died on startup"; exit 1; }
    sleep 0.1
done
[ -s artifacts-serve/port ] || { echo "serve daemon never wrote its port file"; exit 1; }
SERVE_ADDR=$(cat artifacts-serve/port)
for round in 1 2; do
    for id in E1 E15; do
        ./target/release/serve client --addr "$SERVE_ADDR" \
            submit "$id" --wait --out "artifacts-serve/${id}-r${round}.json" \
            2> "artifacts-serve/${id}-r${round}.meta" \
            || { echo "serve submit $id round $round failed"; cat "artifacts-serve/${id}-r${round}.meta"; exit 1; }
    done
done
# Round 2 must be answered from cache (mem after the round-1 computes).
for id in E1 E15; do
    grep -q "cache=miss" "artifacts-serve/${id}-r1.meta" \
        || { echo "$id round 1 was not a cold compute"; cat "artifacts-serve/${id}-r1.meta"; exit 1; }
    grep -Eq "cache=(mem|disk)" "artifacts-serve/${id}-r2.meta" \
        || { echo "$id round 2 was not served from cache"; cat "artifacts-serve/${id}-r2.meta"; exit 1; }
    cmp "artifacts-serve/${id}-r1.json" "artifacts-serve/${id}-r2.json" \
        || { echo "$id warm answer differs from cold answer"; exit 1; }
done
# Server-produced reports agree with the checked-in golden snapshots
# (golden-diff matches snapshots by the reports' interior "id" field).
./target/release/golden-diff tests/golden artifacts-serve/E*-r2.json
# Mitigation specs key the cache: with plain E15 already warm, the same
# submit plus a mitigation spec must be a cold compute (distinct key),
# and repeating the explicit-default spelling of that spec must hit the
# warm entry (canonicalization, not raw-string keying).
./target/release/serve client --addr "$SERVE_ADDR" \
    submit E15 --mitigation para --wait --out artifacts-serve/E15-mit.json \
    2> artifacts-serve/E15-mit.meta \
    || { echo "serve submit E15 --mitigation para failed"; cat artifacts-serve/E15-mit.meta; exit 1; }
grep -q "cache=miss" artifacts-serve/E15-mit.meta \
    || { echo "mitigation spec did not change the cache key"; cat artifacts-serve/E15-mit.meta; exit 1; }
./target/release/serve client --addr "$SERVE_ADDR" \
    submit E15 --mitigation para:p=0.001 --wait --out artifacts-serve/E15-mit2.json \
    2> artifacts-serve/E15-mit2.meta \
    || { echo "serve submit E15 --mitigation para:p=0.001 failed"; cat artifacts-serve/E15-mit2.meta; exit 1; }
grep -Eq "cache=(mem|disk)" artifacts-serve/E15-mit2.meta \
    || { echo "canonicalized mitigation spec missed the warm cache"; cat artifacts-serve/E15-mit2.meta; exit 1; }
cmp artifacts-serve/E15-mit.json artifacts-serve/E15-mit2.json \
    || { echo "mitigated warm answer differs from its cold answer"; exit 1; }
echo "mitigation cache keying OK: spec forks the key, canonical spellings share it"
./target/release/serve client --addr "$SERVE_ADDR" shutdown > /dev/null
wait "$SERVE_PID"
trap - EXIT
rm -rf artifacts-serve
echo "serve smoke OK: cold compute, warm cache hits, golden agreement"

echo "== fleet smoke: 3-shard consistent-hash fleet =="
# Three serve daemons partition the keyspace by consistent hashing; any
# shard must answer any key (forwarding non-owned keys one hop to the
# owner and caching the peer-filled copy), a second round must be all
# cache hits, every shard's answer must be byte-identical, and the whole
# fleet must drain cleanly. The peer list has to be known before any
# shard starts, so pre-pick three free ports.
rm -rf artifacts-fleet
mkdir -p artifacts-fleet
if command -v python3 > /dev/null; then
    read -r FP0 FP1 FP2 <<< "$(python3 -c '
import socket
socks = [socket.socket() for _ in range(3)]
for s in socks: s.bind(("127.0.0.1", 0))
print(*[s.getsockname()[1] for s in socks])
for s in socks: s.close()')"
else
    FP0=47341; FP1=47342; FP2=47343
fi
FLEET_PEERS="127.0.0.1:$FP0,127.0.0.1:$FP1,127.0.0.1:$FP2"
FLEET_PIDS=()
for i in 0 1 2; do
    eval "port=\$FP$i"
    ./target/release/serve --listen "127.0.0.1:$port" --workers 2 \
        --shard-id "$i" --peers "$FLEET_PEERS" \
        --cache-dir "artifacts-fleet/cache$i" \
        --port-file "artifacts-fleet/port$i" 2> "artifacts-fleet/shard$i.log" &
    FLEET_PIDS+=("$!")
done
trap 'kill "${FLEET_PIDS[@]}" 2> /dev/null || true' EXIT
for i in 0 1 2; do
    for _ in $(seq 1 100); do
        [ -s "artifacts-fleet/port$i" ] && break
        kill -0 "${FLEET_PIDS[i]}" 2> /dev/null \
            || { echo "fleet shard $i died on startup"; cat "artifacts-fleet/shard$i.log"; exit 1; }
        sleep 0.1
    done
    [ -s "artifacts-fleet/port$i" ] \
        || { echo "fleet shard $i never wrote its port file"; exit 1; }
done
FLEET_ADDR0=$(cat artifacts-fleet/port0)
# Round 1, all through shard 0: cold fleet-wide; non-owned keys arrive
# by peer fill. Round 2, same shard: every answer must come from cache.
for round in 1 2; do
    for id in E1 E15; do
        ./target/release/serve client --addr "$FLEET_ADDR0" \
            submit "$id" --wait --out "artifacts-fleet/${id}-s0-r${round}.json" \
            2> "artifacts-fleet/${id}-s0-r${round}.meta" \
            || { echo "fleet submit $id round $round failed"
                 cat "artifacts-fleet/${id}-s0-r${round}.meta"; exit 1; }
    done
done
for id in E1 E15; do
    grep -Eq "cache=(mem|disk)" "artifacts-fleet/${id}-s0-r2.meta" \
        || { echo "fleet $id round 2 was not served from cache"
             cat "artifacts-fleet/${id}-s0-r2.meta"; exit 1; }
    cmp "artifacts-fleet/${id}-s0-r1.json" "artifacts-fleet/${id}-s0-r2.json" \
        || { echo "fleet $id warm answer differs from its cold answer"; exit 1; }
done
# A Zipf-skewed seed mix through the same shard: the hot seed repeats,
# the tail appears once, and every repeat must be a cache hit whichever
# shard owns the key.
for seed in 0xA1 0xA2 0xA2 0xA3 0xA1 0xA1 0xA1; do
    ./target/release/serve client --addr "$FLEET_ADDR0" \
        submit E1 --seed "$seed" --wait --out /dev/null \
        2> artifacts-fleet/zipf.meta \
        || { echo "fleet Zipf submit E1 seed $seed failed"
             cat artifacts-fleet/zipf.meta; exit 1; }
done
grep -Eq "cache=(mem|disk)" artifacts-fleet/zipf.meta \
    || { echo "repeated Zipf seed was not served from cache"
         cat artifacts-fleet/zipf.meta; exit 1; }
# Any shard answers any key with the exact same bytes: the owner
# computed each report once, every other shard serves the peer-filled
# copy verbatim.
for i in 1 2; do
    FLEET_ADDR=$(cat "artifacts-fleet/port$i")
    for id in E1 E15; do
        ./target/release/serve client --addr "$FLEET_ADDR" \
            submit "$id" --wait --out "artifacts-fleet/${id}-s${i}.json" \
            2> /dev/null \
            || { echo "fleet shard $i submit $id failed"; exit 1; }
        cmp "artifacts-fleet/${id}-s0-r1.json" "artifacts-fleet/${id}-s${i}.json" \
            || { echo "shard $i's $id answer is not byte-identical to shard 0's"; exit 1; }
    done
done
# The fleet's answers hold to the same golden snapshots as the batch
# path and the single-shard smoke above — the 1-shard/3-shard
# agreement gate (golden-diff strips the volatile run metadata).
./target/release/golden-diff tests/golden artifacts-fleet/E*-s0-r2.json
# Each key has exactly one owner, and every key was requested through
# all three shards, so the fleet as a whole must have forwarded and
# peer-filled at least once per key — with zero peer failures.
./target/release/serve client --addr "$FLEET_ADDR0" stats > /dev/null
if command -v python3 > /dev/null; then
    for i in 0 1 2; do
        ./target/release/serve client --addr "$(cat "artifacts-fleet/port$i")" stats
    done | python3 -c '
import json, sys
docs = [json.loads(line) for line in sys.stdin if line.strip()]
fwd = sum(d["forwarded"] for d in docs)
fills = sum(d["peer_fills"] for d in docs)
bad = sum(d["peer_failures"] for d in docs)
if fwd < 2 or fills < 2:
    sys.exit(f"fleet forwarded {fwd} / peer-filled {fills} times; expected >= 2 each")
if bad:
    sys.exit(f"healthy fleet reported {bad} peer failures")
print(f"fleet routing OK: {fwd} forwards, {fills} peer fills, 0 peer failures")'
fi
# Stats key-set golden: the frame's full key set (volatile values
# stripped; dotted paths for nested objects) is public operational
# surface, so drift must be deliberate. To update, re-run this smoke and
# copy artifacts-fleet/stats-keys.txt over the golden:
#   tools/check.sh   # fails here, leaving artifacts-fleet/ in place
#   cp artifacts-fleet/stats-keys.txt tests/golden/serve_stats_keys.txt
if command -v python3 > /dev/null; then
    ./target/release/serve client --addr "$FLEET_ADDR0" stats | python3 -c '
import json, sys
def walk(path, v, out):
    out.append(path)
    if isinstance(v, dict):
        for k in sorted(v): walk(f"{path}.{k}", v[k], out)
doc = json.loads(sys.stdin.read())
keys = []
for k in sorted(doc): walk(k, doc[k], keys)
print("\n".join(keys))' > artifacts-fleet/stats-keys.txt
    diff -u tests/golden/serve_stats_keys.txt artifacts-fleet/stats-keys.txt \
        || { echo "stats frame key set drifted from tests/golden/serve_stats_keys.txt"; exit 1; }
    echo "stats frame key set matches its golden"
else
    STATS=$(./target/release/serve client --addr "$FLEET_ADDR0" stats)
    for key in open_connections accepted_total forwarded peer_fills \
               peer_failures wrong_shard shard_id shards ring_epoch; do
        echo "$STATS" | grep -q "\"$key\"" \
            || { echo "stats frame missing \"$key\": $STATS"; exit 1; }
    done
    echo "stats frame keys present (python3 unavailable: golden diff skipped)"
fi
# Clean drain: every shard acknowledges shutdown and exits 0.
for i in 0 1 2; do
    ./target/release/serve client --addr "$(cat "artifacts-fleet/port$i")" shutdown > /dev/null
done
for pid in "${FLEET_PIDS[@]}"; do
    wait "$pid" || { echo "fleet shard (pid $pid) did not drain cleanly"; exit 1; }
done
trap - EXIT
rm -rf artifacts-fleet
echo "fleet smoke OK: any-shard answers, all-hit round 2, byte-identical shards, clean drain"

echo "== serve_throughput: warm cache must beat cold compute 10x =="
./target/release/serve_throughput

echo "== serve_load: sustained fleet throughput under Zipf load =="
# 200 concurrent clients x 40 requests each against a 1-shard and a
# 3-shard in-process fleet over loopback TCP, Zipf-skewed key mix. The
# 2x scaling gate self-disables below 4 cores (the rows are still
# measured and written to BENCH_serve.json); the every-response-ok and
# >=90%-memory-tier gates always apply.
./target/release/serve_load

echo "== perf smoke: packed cell engine vs pre-refactor baseline =="
# Cold --quick harness run regenerates BENCH_harness.json, including the
# replay_commands_per_sec metric and the pre-refactor anchors it is
# gated against (measured at the seed commit; see the harness source).
# Floors are generous on purpose — they flag order-of-magnitude
# regressions (per-cell scans, per-event observer dispatch creeping back
# into a hot path), not machine-load noise:
#   - replay throughput must hold >= 0.5x the pre-refactor rate (replay
#     dispatch was already allocation-free before the SoA engine; the
#     refactor's wins are in the record/scan/commit paths);
#   - E15 cold wall time must hold <= 0.75x the pre-refactor 3.38s
#     (the SoA engine measures ~0.4x, so this keeps ~2x headroom);
#   - E27's `exp --quick --threads 1` wall time, best of five runs
#     (load only slows a run down), must hold <= 0.75x 5.24s, its
#     one-thread time before the live command path stopped dispatching
#     request events to observers that ignore them and started spinning
#     REF-synced kernels through `read_until`. It is timed on one thread
#     because the harness's parallel figure for E27 stays under that
#     ceiling on two cores even without those changes.
# Golden agreement for the same refactored binary is enforced by the
# conformance stage above.
./target/release/run_all_experiments --quick > /dev/null
if command -v python3 > /dev/null; then
    python3 - <<'EOF'
import json, subprocess, sys, time
doc = json.load(open("BENCH_harness.json"))
base = doc["pre_refactor_baseline"]
replay = doc["replay"]["replay_commands_per_sec"]
floor = 0.5 * base["replay_commands_per_sec"]
if replay < floor:
    sys.exit(f"replay throughput regressed: {replay:.0f} cmds/s < floor {floor:.0f}")
e15 = next(e["secs"] for e in doc["experiments"] if e["id"] == "E15")
ceiling = 0.75 * base["e15_secs"]
if e15 > ceiling:
    sys.exit(f"E15 cold run regressed: {e15:.2f}s > ceiling {ceiling:.2f}s "
             f"(pre-refactor {base['e15_secs']}s)")
def wall(cmd):
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start
e27 = min(wall(["./target/release/exp", "--quick", "--threads", "1", "--only", "e27"])
          for _ in range(5))
e27_ceiling = 0.75 * 5.24
if e27 > e27_ceiling:
    sys.exit(f"E27 one-thread run regressed: {e27:.2f}s > ceiling {e27_ceiling:.2f}s "
             f"(5.24s before read_until and origin-filtered dispatch)")
print(f"perf smoke OK: replay {replay/1e6:.1f}M cmds/s (floor {floor/1e6:.1f}M), "
      f"E15 {e15:.2f}s (ceiling {ceiling:.2f}s), E27 {e27:.2f}s (ceiling {e27_ceiling:.2f}s)")
EOF
else
    echo "perf smoke: harness ran; python3 unavailable, thresholds skipped"
fi

echo "== cargo clippy --offline -- -D warnings =="
# --workspace --all-targets covers densemem-testkit (and every other
# crate) with warnings denied.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "check.sh: all green"
