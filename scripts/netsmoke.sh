#!/bin/sh
# netsmoke: the multi-process transport gate `make check` runs.
#
# For each of the three algorithms (ca-all-pairs, ca-cutoff — in 1D,
# and in 2D with migrating particles — and the naive all-gather) it runs
# the same configuration twice — once with every rank in-process, once
# spanned across OS processes over TCP loopback via -spawn — and
# requires the two runs to be indistinguishable (a last case holds
# `nbody sweep` to the same contract on its c, S and W columns):
#
#   * checkpoint: the saved checkpoints are bitwise identical (`cmp`);
#   * matrix: the communication matrices (-matrix-out: messages and
#     bytes of every phase, source and destination) are bitwise
#     identical (`cmp`);
#   * S/W: the report footer lines naming the critical path or a lower
#     bound — measured S and W and their bounds — are equal. The time
#     columns are left out.
#
# Any divergence means the wire transport changed what the simulation
# computed or how much it communicated — both are bugs by the
# transport-fidelity contract (DESIGN.md, "wire transport"). Each
# failing check is named before the script exits non-zero.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d "${TMPDIR:-/tmp}/netsmoke.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

$GO build -o "$tmp/nbody" ./cmd/nbody

failed=0
run_case() {
    name=$1; rpp=$2; shift 2
    echo "netsmoke: $name"
    "$tmp/nbody" "$@" -save "$tmp/$name.single.ckpt" \
        -matrix-out "$tmp/$name.single.matrix.json" >"$tmp/$name.single.out"
    "$tmp/nbody" "$@" -ranks-per-proc "$rpp" -spawn \
        -save "$tmp/$name.multi.ckpt" \
        -matrix-out "$tmp/$name.multi.matrix.json" >"$tmp/$name.multi.out"
    if ! cmp -s "$tmp/$name.single.ckpt" "$tmp/$name.multi.ckpt"; then
        echo "netsmoke: $name: checkpoint: final states differ between transports" >&2
        failed=1
    fi
    if ! cmp -s "$tmp/$name.single.matrix.json" "$tmp/$name.multi.matrix.json"; then
        echo "netsmoke: $name: matrix: communication matrices differ between transports" >&2
        failed=1
    fi
    if ! grep -E 'critical-path|lower bound' "$tmp/$name.single.out" >"$tmp/$name.single.sw" ||
        ! grep -E 'critical-path|lower bound' "$tmp/$name.multi.out" >"$tmp/$name.multi.sw" ||
        ! cmp -s "$tmp/$name.single.sw" "$tmp/$name.multi.sw"; then
        echo "netsmoke: $name: S/W: report footers differ between transports" >&2
        diff "$tmp/$name.single.sw" "$tmp/$name.multi.sw" >&2 || true
        failed=1
    fi
}

run_case allpairs 2 -n 64 -p 4 -c 2 -steps 4 -seed 3
run_case cutoff 8 -n 128 -p 16 -c 1 -cutoff 2 -steps 4 -seed 3
run_case naive 2 -alg naive -n 64 -p 4 -steps 4 -seed 3

# cutoff2d-migrating: a 2D periodic cutoff run whose particles (uniform,
# and a timestep large enough to set them moving) change teams, so
# reassignment forwards migrants between stages — x first, then y —
# and the y stage crosses between the two processes, which hold two
# rows of the 4 × 4 team grid each. A run that stops migrating would
# pass the checks above without exercising any of that, so it fails
# unless its matrix shows reassignment bytes.
run_case cutoff2d-migrating 8 -n 512 -p 16 -c 1 -dim 2 -boundary periodic -cutoff 4 -dt 3e-2 -steps 40 -seed 3
reassign_bytes=$(awk '
    /"name":/ { phase = $2 }
    /"sent_bytes":/ { bytes = 1; next }
    /"(sent_msgs|recv_msgs|recv_bytes)":/ { bytes = 0 }
    bytes && phase ~ /"reassign"/ && /^[ \t]*[0-9]+,?$/ { gsub(/[ \t,]/, ""); sum += $0 }
    END { print sum + 0 }' "$tmp/cutoff2d-migrating.multi.matrix.json")
if [ "$reassign_bytes" -eq 0 ]; then
    echo "netsmoke: cutoff2d-migrating: migration: the matrix shows 0 reassignment bytes; the case no longer migrates" >&2
    failed=1
fi

# sweep: one process per two ranks must measure the same S and W per
# configuration as the in-process sweep; the time column is left out.
echo "netsmoke: sweep"
"$tmp/nbody" sweep -n 64 -p 4 -cs 1,2 -steps 2 | awk '/^c=/ {print $1, $3, $4}' >"$tmp/sweep.single"
"$tmp/nbody" sweep -n 64 -p 4 -cs 1,2 -steps 2 -ranks-per-proc 2 -spawn |
    awk '/^c=/ {print $1, $3, $4}' >"$tmp/sweep.multi"
if [ "$(wc -l <"$tmp/sweep.single")" -ne 2 ] || ! cmp -s "$tmp/sweep.single" "$tmp/sweep.multi"; then
    echo "netsmoke: sweep: S/W: sweep rows differ between transports" >&2
    diff "$tmp/sweep.single" "$tmp/sweep.multi" >&2 || true
    failed=1
fi

if [ "$failed" -ne 0 ]; then
    echo "netsmoke: FAIL — socket and in-process runs differ" >&2
    exit 1
fi
echo "netsmoke: ok — socket and in-process transports are indistinguishable"
