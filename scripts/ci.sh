#!/usr/bin/env bash
# Local CI gate: everything a change must pass before review.
# Mirrors the order a hosted pipeline would use — cheap checks first.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> precision lint wall (no bare 'as f32' narrowing outside the conversion helpers)"
narrowing="$(grep -rn 'as f32' crates/ell/src crates/num/src --include='*.rs' \
    | grep -v '^crates/num/src/narrow\.rs:' || true)"
if [ -n "$narrowing" ]; then
    echo "FAIL: bare 'as f32' narrowing outside crates/num/src/narrow.rs:" >&2
    echo "$narrowing" >&2
    exit 1
fi
echo "    clean: every f64->f32 narrowing goes through bqsim-num's narrow helpers"

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> benchmark harness builds and passes against the current crate APIs"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> paper reports (table1 renders; a zero count is a usage error, exit 2)"
table1_out="$(cargo run -q -p bqsim-bench --release --bin report -- table1)"
if ! printf '%s\n' "$table1_out" | grep -qF '# Table 1'; then
    echo "FAIL: report table1 did not print '# Table 1':" >&2
    printf '%s\n' "$table1_out" >&2
    exit 1
fi
set +e
cargo run -q -p bqsim-bench --release --bin report -- table2 --batches 0 2>/dev/null
report_rc=$?
set -e
if [ "$report_rc" -ne 2 ]; then
    echo "FAIL: report table2 --batches 0 exited $report_rc, want 2 (usage error)" >&2
    exit 1
fi
# A batch count that would size an ~800 GB schedule is a simulator error
# (the graph-size bound), not an allocation abort.
set +e
cargo run -q -p bqsim-bench --release --bin report -- fig10 --batches 100000000000 \
    >/dev/null 2>&1
report_rc=$?
set -e
if [ "$report_rc" -ne 5 ]; then
    echo "FAIL: report fig10 --batches 100000000000 exited $report_rc, want 5 (sim error)" >&2
    exit 1
fi
echo "    report table1 rendered; table2 --batches 0 rejected (exit 2);" \
    "fig10 --batches 1e11 refused (exit 5)"

echo "==> fault-recovery seed matrix"
for seed in 1 7 42 1234; do
    echo "    BQSIM_FAULT_SEED=$seed"
    BQSIM_FAULT_SEED=$seed \
        cargo test -q -p bqsim-integration-tests --test fault_recovery \
        seed_matrix_recovery_is_deterministic
done

echo "==> spMM lane thread matrix (1, 2 and 7 lanes must agree bit-for-bit)"
for threads in 1 4; do
    echo "    BQSIM_THREADS=$threads"
    BQSIM_THREADS=$threads \
        cargo test -q -p bqsim-integration-tests --test parallel_exec \
        _is_bit_identical_to_serial
done

echo "==> bqsim analyze under injected faults (recovery schedule must be hazard-free)"
cargo run -q -p bqsim-serve --release --bin bqsim -- analyze \
    --family vqe --qubits 6 --batches 4 --fault-plan seed=42,kernel=2,copy=1,hang=1

echo "==> bqsim faults (a recovering run must match the fault-free run bit-for-bit)"
# Capture, then grep: the command must exit 0 and print the verdict.
faults_out="$(cargo run -q -p bqsim-serve --release --bin bqsim -- faults \
    --family vqe --qubits 6 --batches 4)"
if ! printf '%s\n' "$faults_out" | grep -qF 'recovered outputs bit-identical to fault-free run: yes'; then
    echo "FAIL: bqsim faults did not recover bit-identically:" >&2
    printf '%s\n' "$faults_out" >&2
    exit 1
fi
echo "    recovered outputs bit-identical to the fault-free run"

echo "==> durable campaign interrupt-resume gate (digest must be bit-identical)"
journal="$(mktemp -u "${TMPDIR:-/tmp}/bqsim-ci-XXXXXX.journal")"
svc_root="$(mktemp -d "${TMPDIR:-/tmp}/bqsim-ci-serve-XXXXXX")"
trap 'rm -f "$journal" "$journal.state" "$journal.ref" "$journal.ref.state"; rm -rf "$svc_root"' EXIT
run_bqsim() { cargo run -q -p bqsim-serve --release --bin bqsim -- "$@"; }
ref_digest="$(run_bqsim run --family routing --qubits 6 --batches 6 --batch-size 32 \
    --journal "$journal.ref" | grep 'campaign digest:')"
# Capture, then grep: `grep -q` closing the pipe early would SIGPIPE
# the still-printing run and flake the gate.
# Interrupt at two lanes, resume at one: the lane count is not part of
# the plan, so the resume must be accepted and land on the same digest.
interrupted_out="$(BQSIM_THREADS=2 run_bqsim run --family routing --qubits 6 --batches 6 \
    --batch-size 32 --journal "$journal" --stop-after 3)"
echo "$interrupted_out" | grep -q 'journal is resumable'
resumed_digest="$(BQSIM_THREADS=1 run_bqsim run --family routing --qubits 6 --batches 6 \
    --batch-size 32 --journal "$journal" --resume | grep 'campaign digest:')"
if [ "$ref_digest" != "$resumed_digest" ]; then
    echo "FAIL: interrupted+resumed digest ($resumed_digest) != uninterrupted ($ref_digest)" >&2
    exit 1
fi
echo "    $resumed_digest (interrupted+resumed == uninterrupted)"

echo "==> bqsim analyze --journal (exactly-once completion, fingerprint, ordering)"
run_bqsim analyze --journal "$journal"
run_bqsim analyze --journal "$journal.ref"

echo "==> layout x thread campaign digest matrix (aos/planar x 1/4 must agree bit-for-bit)"
# qft-6 x 32 is 2,048 output elements per launch, below the 4,096 a lane
# needs, so it never splits; qft-10 x 32 (32,768) splits every launch
# across the host's lanes.
matrix_digest=""
for qubits in 6 10; do
    row_digest=""
    for layout in aos planar; do
        for threads in 1 4; do
            mj="$(mktemp -u "${TMPDIR:-/tmp}/bqsim-ci-matrix-XXXXXX.journal")"
            d="$(BQSIM_LAYOUT=$layout BQSIM_THREADS=$threads \
                run_bqsim run --family qft --qubits "$qubits" --batches 4 --batch-size 32 \
                --journal "$mj" | grep 'campaign digest:')"
            rm -f "$mj" "$mj.state"
            echo "    qft-$qubits layout=$layout threads=$threads $d"
            if [ -z "$row_digest" ]; then
                row_digest="$d"
            elif [ "$row_digest" != "$d" ]; then
                echo "FAIL: qft-$qubits layout=$layout threads=$threads digest ($d) != reference ($row_digest)" >&2
                exit 1
            fi
        done
    done
    if [ "$qubits" = 6 ]; then
        matrix_digest="$row_digest"
    fi
done
# Interrupt the splitting row at one lane, resume at two: the resumed
# batches run split launches and must land on the same digest.
mj="$(mktemp -u "${TMPDIR:-/tmp}/bqsim-ci-matrix-XXXXXX.journal")"
interrupted_out="$(BQSIM_THREADS=1 run_bqsim run --family qft --qubits 10 --batches 4 \
    --batch-size 32 --journal "$mj" --stop-after 2)"
echo "$interrupted_out" | grep -q 'journal is resumable'
d="$(BQSIM_THREADS=2 run_bqsim run --family qft --qubits 10 --batches 4 --batch-size 32 \
    --journal "$mj" --resume | grep 'campaign digest:')"
rm -f "$mj" "$mj.state"
if [ "$d" != "$row_digest" ]; then
    echo "FAIL: qft-10 interrupted at 1 lane, resumed at 2: $d != uninterrupted ($row_digest)" >&2
    exit 1
fi
echo "    qft-10 interrupted at threads=1, resumed at threads=2: $d"

echo "==> precision matrix gate ({f64,f32} x threads {1,4}; thread-stable, no quarantine at 1e-4)"
declare -A prec_digest=()
for precision in f64 f32; do
    for threads in 1 4; do
        pj="$(mktemp -u "${TMPDIR:-/tmp}/bqsim-ci-precision-XXXXXX.journal")"
        out="$(BQSIM_THREADS=$threads \
            run_bqsim run --family qft --qubits 6 --batches 4 --batch-size 32 \
            --precision "$precision" --integrity-budget 1e-4 --journal "$pj")"
        rm -f "$pj" "$pj.state"
        d="$(echo "$out" | grep 'campaign digest:')"
        echo "    precision=$precision threads=$threads $d"
        if ! echo "$out" | grep -q ' 0 quarantined, 0 retried at f64'; then
            echo "FAIL: precision=$precision threads=$threads quarantined inside a 1e-4 budget" >&2
            exit 1
        fi
        if [ -z "${prec_digest[$precision]:-}" ]; then
            prec_digest[$precision]="$d"
        elif [ "${prec_digest[$precision]}" != "$d" ]; then
            echo "FAIL: precision=$precision digest varies with threads (${prec_digest[$precision]} vs $d)" >&2
            exit 1
        fi
    done
done
if [ "${prec_digest[f64]}" != "$matrix_digest" ]; then
    echo "FAIL: explicit --precision f64 digest (${prec_digest[f64]}) != default reference ($matrix_digest)" >&2
    exit 1
fi

echo "==> analyzer precision-tolerance audit (f32 fits a loose budget, trips a tight one)"
run_bqsim analyze --family qft --qubits 6 --batches 4 \
    --precision f32 --integrity-budget 1e-4
if run_bqsim analyze --family qft --qubits 6 --batches 4 \
    --precision f32 --integrity-budget 1e-9 >/dev/null 2>&1; then
    echo "FAIL: f32 tolerance estimate passed a 1e-9 budget it cannot meet" >&2
    exit 1
fi
echo "    f32: passes at 1e-4, rejected at 1e-9 (exit 1)"

echo "==> artifact-store warm start (shared --artifact-dir; cold once, warm after, digests equal)"
astore="$svc_root/astore"
warm_digest=""
first_run=1
for threads in 1 4; do
    for round in 1 2; do
        aj="$(mktemp -u "${TMPDIR:-/tmp}/bqsim-ci-artifact-XXXXXX.journal")"
        out="$(BQSIM_THREADS=$threads \
            run_bqsim run --family qft --qubits 6 --batches 4 --batch-size 32 \
            --journal "$aj" --artifact-dir "$astore")"
        rm -f "$aj" "$aj.state"
        d="$(echo "$out" | grep 'campaign digest:')"
        src="$(echo "$out" | grep 'artifact store:')"
        echo "    threads=$threads round=$round $d ($src)"
        if [ "$first_run" = 1 ]; then
            first_run=0
            warm_digest="$d"
            if ! echo "$out" | grep -q 'artifact store: cold compile'; then
                echo "FAIL: first run against an empty store must compile cold" >&2
                exit 1
            fi
        else
            if ! echo "$out" | grep -q 'artifact store: warm compile'; then
                echo "FAIL: threads=$threads round=$round did not warm-hit the shared store" >&2
                exit 1
            fi
            if [ "$d" != "$warm_digest" ]; then
                echo "FAIL: warm digest ($d) != cold digest ($warm_digest)" >&2
                exit 1
            fi
        fi
    done
done
if [ "$warm_digest" != "$matrix_digest" ]; then
    echo "FAIL: artifact-store digest ($warm_digest) != storeless matrix digest ($matrix_digest)" >&2
    exit 1
fi

echo "==> artifact-store corruption degrades to recompile (warning, same digest, then warm)"
bqc="$(ls "$astore"/*.bqc | head -n 1)"
size="$(wc -c < "$bqc")"
at=$((size / 2))
b="$(od -An -tu1 -j "$at" -N 1 "$bqc" | tr -d ' ')"
printf "$(printf '\\%03o' $(((b + 1) % 256)))" \
    | dd of="$bqc" bs=1 seek="$at" conv=notrunc status=none
aj="$(mktemp -u "${TMPDIR:-/tmp}/bqsim-ci-corrupt-XXXXXX.journal")"
out="$(run_bqsim run --family qft --qubits 6 --batches 4 --batch-size 32 \
    --journal "$aj" --artifact-dir "$astore" 2>&1)"
rm -f "$aj" "$aj.state"
if ! echo "$out" | grep -q 'warning: artifact store'; then
    echo "FAIL: corrupt artifact produced no warning" >&2
    echo "$out" >&2
    exit 1
fi
if ! echo "$out" | grep -q 'artifact store: recompiled compile'; then
    echo "FAIL: corrupt artifact was not recompiled" >&2
    echo "$out" >&2
    exit 1
fi
if [ "$(echo "$out" | grep 'campaign digest:')" != "$warm_digest" ]; then
    echo "FAIL: recompiled digest drifted from cold digest ($warm_digest)" >&2
    exit 1
fi
aj="$(mktemp -u "${TMPDIR:-/tmp}/bqsim-ci-corrupt-XXXXXX.journal")"
out="$(run_bqsim run --family qft --qubits 6 --batches 4 --batch-size 32 \
    --journal "$aj" --artifact-dir "$astore")"
rm -f "$aj" "$aj.state"
if ! echo "$out" | grep -q 'artifact store: warm compile'; then
    echo "FAIL: recompile did not republish a loadable artifact" >&2
    exit 1
fi
run_bqsim analyze --artifact "$astore"

echo "==> auto-tuner gate (cold probes once; warm stored record, 0 probes; tuned f64 digest stable)"
tstore="$svc_root/tstore"
tune_digest=""
for round in cold warm; do
    tj="$(mktemp -u "${TMPDIR:-/tmp}/bqsim-ci-tuner-XXXXXX.journal")"
    # A 1e-9 budget prunes the narrow arms a priori, so the tuner must
    # settle on f64 and the digest must match the untuned reference.
    out="$(run_bqsim run --family qft --qubits 6 --batches 4 --batch-size 32 \
        --precision auto --integrity-budget 1e-9 \
        --artifact-dir "$tstore" --journal "$tj")"
    rm -f "$tj" "$tj.state"
    d="$(echo "$out" | grep 'campaign digest:')"
    tuned="$(echo "$out" | grep 'auto-tuned:')"
    echo "    $round: $tuned"
    if [ "$round" = cold ]; then
        if ! echo "$out" | grep -q 'probe execution(s) measured'; then
            echo "FAIL: cold --precision auto run did not probe" >&2
            exit 1
        fi
        tune_digest="$d"
    else
        if ! echo "$out" | grep -q 'stored record, 0 probes'; then
            echo "FAIL: warm --precision auto run re-probed instead of using the stored record" >&2
            exit 1
        fi
        if [ "$d" != "$tune_digest" ]; then
            echo "FAIL: warm tuned digest ($d) != cold tuned digest ($tune_digest)" >&2
            exit 1
        fi
    fi
done
if [ "$tune_digest" != "$matrix_digest" ]; then
    echo "FAIL: tuned f64 digest ($tune_digest) != untuned reference ($matrix_digest)" >&2
    exit 1
fi
# Capture, then grep: `grep -q` closing the pipe early would SIGPIPE
# the status printer under pipefail.
tstatus="$(run_bqsim status --artifact-dir "$tstore")"
if ! echo "$tstatus" | grep -q 'tuned: precision='; then
    echo "FAIL: bqsim status does not report the persisted tuning record" >&2
    printf '%s\n' "$tstatus" >&2
    exit 1
fi

echo "==> analyze JSON output is machine-readable and clean"
an_json="$(run_bqsim analyze --family ghz --qubits 4 --batches 4 --format json)"
case "$an_json" in
    '{"sections":'*'"errors":0'*) echo "    ok: ${#an_json} bytes, 0 errors" ;;
    *) echo "FAIL: unexpected analyze JSON: $an_json" >&2; exit 1 ;;
esac

echo "==> seeded-defect corpus (every injected defect must fail the analyzer, exit 1)"
for defect in race journal; do
    set +e
    run_bqsim analyze --family ghz --qubits 4 --batches 4 \
        --inject-defect "$defect" >/dev/null 2>&1
    defect_rc=$?
    set -e
    if [ "$defect_rc" -ne 1 ]; then
        echo "FAIL: --inject-defect $defect exited $defect_rc, want 1 (a finding)" >&2
        exit 1
    fi
    echo "    --inject-defect $defect rejected (exit 1)"
done

echo "==> multi-tenant service chaos gate (8 tenants, device loss, SIGKILL, resume)"
sv_fams=(qft ghz graph vqe supremacy qft graph vqe)
sv_qubits=(12 10 9 8 10 12 10 9)
sv_batches=(8 6 6 4 4 8 6 4)
sv_bs=(64 32 32 32 32 64 32 32)
sv_prios=(low normal high low normal high normal high)
# t4 runs narrow, so SIGKILL and resume also cover the f64 retry path.
sv_precs=(f64 f64 f64 f32 f64 f64 f64 f64)
sv_expect=()
cmds="$svc_root/jobs.cmd"
for i in 0 1 2 3 4 5 6 7; do
    n=$((i + 1))
    run_bqsim submit --submissions "$cmds" \
        "tenant=t$n" "id=j$n" "family=${sv_fams[$i]}" "qubits=${sv_qubits[$i]}" \
        "batches=${sv_batches[$i]}" "batch-size=${sv_bs[$i]}" "seed=$((10 + n))" \
        "fault-seed=$((100 + n))" "priority=${sv_prios[$i]}" \
        "precision=${sv_precs[$i]}" >/dev/null
    # Serial twin: the same campaign submitted alone must yield the
    # digest the service reports for this tenant.
    d="$(run_bqsim run --family "${sv_fams[$i]}" --qubits "${sv_qubits[$i]}" \
        --batches "${sv_batches[$i]}" --batch-size "${sv_bs[$i]}" --seed "$((10 + n))" \
        --fault-plan "seed=$((100 + n))" --precision "${sv_precs[$i]}" \
        | grep 'campaign digest:' | awk '{print $NF}')"
    sv_expect+=("$d")
done
for threads in 1 4; do
    echo "    BQSIM_THREADS=$threads"
    sd="$svc_root/threads$threads"
    # Run the service binary directly (not via `cargo run`) so the
    # SIGKILL hits the service process itself, not a wrapper.
    BQSIM_THREADS=$threads target/release/bqsim serve --state-dir "$sd" \
        --submissions "$cmds" --devices 2 --queue-cap 16 \
        --device-loss dev=1,after=3 >/dev/null &
    svc_pid=$!
    sleep 0.25
    kill -9 "$svc_pid" 2>/dev/null || true
    wait "$svc_pid" 2>/dev/null || true
    # Resume with the same command file: in-flight work resumes from
    # its journal, finished work reports its settled digest, and any
    # spec the crash preempted before admission is admitted fresh.
    BQSIM_THREADS=$threads run_bqsim serve --state-dir "$sd" --resume \
        --submissions "$cmds" --devices 2 >/dev/null
    status_out="$(run_bqsim status --state-dir "$sd")"
    for i in 0 1 2 3 4 5 6 7; do
        n=$((i + 1))
        want="t$n/j$n: done digest=${sv_expect[$i]}"
        if ! printf '%s\n' "$status_out" | grep -qF "$want"; then
            echo "FAIL: threads=$threads missing '$want' in service status:" >&2
            printf '%s\n' "$status_out" >&2
            exit 1
        fi
    done
    run_bqsim analyze --service-schedule "$sd/schedule.trace"
done
echo "    all 8 tenants bit-identical to serial submission across threads {1,4}"

echo "==> service overload gate (bounded queue rejects with exit 6, never OOM)"
ovcmds="$svc_root/overload.cmd"
for i in 1 2 3 4; do
    run_bqsim submit --submissions "$ovcmds" "tenant=ov" "id=j$i" "family=ghz" \
        "qubits=4" "batches=2" "batch-size=8" "seed=$i" >/dev/null
done
set +e
run_bqsim serve --state-dir "$svc_root/overload" --submissions "$ovcmds" \
    --devices 1 --queue-cap 1 >/dev/null
ov_rc=$?
set -e
if [ "$ov_rc" -ne 6 ]; then
    echo "FAIL: overloaded service exited $ov_rc, want 6 (structured rejection)" >&2
    exit 1
fi
echo "    saturated queue rejected with exit 6"

echo "==> miri pass over unsafe-adjacent crates (skipped when nightly miri is absent)"
if cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test -p bqsim-ell -p bqsim-num
else
    echo "    skipped: cargo +nightly miri is not installed in this environment"
fi

echo "==> git diff --exit-code (a CI run must leave every tracked file as it found it)"
git diff --exit-code

echo "CI gate passed."
