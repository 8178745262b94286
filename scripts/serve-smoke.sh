#!/bin/sh
# serve-smoke: end-to-end check of the dpss-serve daemon.
#
# 1. Self-check: start the daemon on a bounded replay source with an
#    ephemeral HTTP port, scrape /metrics and /healthz over real HTTP,
#    and validate the OpenMetrics exposition (serve.ValidateExposition:
#    TYPE-before-samples, counter _total suffixes, final `# EOF`).
# 2. Crash recovery: run half the horizon with a checkpoint file, then
#    restart and confirm the resumed process completes the full horizon
#    with the report of an uninterrupted run.
#
# CI runs this via `make serve-smoke`.
set -eu
cd "$(dirname "$0")/.."

echo "==> smoke: scrape + OpenMetrics validation"
go run ./cmd/dpss-serve -smoke -days 2 -addr 127.0.0.1:0

echo "==> smoke: checkpoint write + cross-process resume"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
ckpt="$tmpdir/dpss.ckpt"

go run ./cmd/dpss-serve -oneshot -days 2 -max-slots 24 -checkpoint "$ckpt" >"$tmpdir/first.out" 2>&1
grep -q '^slots       24$' "$tmpdir/first.out" || {
    echo "serve-smoke: first run did not stop at slot 24" >&2
    cat "$tmpdir/first.out" >&2
    exit 1
}
[ -s "$ckpt" ] || { echo "serve-smoke: no checkpoint written" >&2; exit 1; }

go run ./cmd/dpss-serve -oneshot -days 2 -checkpoint "$ckpt" >"$tmpdir/second.out" 2>&1
grep -q 'resumed from' "$tmpdir/second.out" || {
    echo "serve-smoke: second run did not resume from the checkpoint" >&2
    cat "$tmpdir/second.out" >&2
    exit 1
}
grep -q '^slots       48$' "$tmpdir/second.out" || {
    echo "serve-smoke: resumed run did not reach the full horizon" >&2
    cat "$tmpdir/second.out" >&2
    exit 1
}
go run ./cmd/dpss-serve -oneshot -days 2 >"$tmpdir/whole.out" 2>&1
for key in 'policy' 'slots' 'total cost' 'avg cost' 'avg delay'; do
    want="$(grep "^$key " "$tmpdir/whole.out" || true)"
    got="$(grep "^$key " "$tmpdir/second.out" || true)"
    if [ -z "$want" ] || [ "$got" != "$want" ]; then
        echo "serve-smoke: resumed run's '$key' line differs from the uninterrupted run's" >&2
        echo "  resumed:       $got" >&2
        echo "  uninterrupted: $want" >&2
        exit 1
    fi
done
echo "serve-smoke: checkpoint resume ok (report equals the uninterrupted run)"
