#!/bin/sh
# pairs: compare the working tree with a base commit on one workload of
# the repository benchmark, in alternating pairs (ROADMAP standing rule
# 1: a speed claim is measured on the parent and on the change in ten or
# more alternating pairs).
#
#   sh scripts/pairs.sh [-w workload] [-n pairs] [-b base] [-s seconds] [-d dir]
#
# The base (default HEAD, the parent of uncommitted work) is unpacked
# with `git archive` into dir/parent; pair i runs
# `bash benchmark/run.sh --workload W --seed i --trace 0` once in that
# copy and once in the working tree, the base first in odd pairs and
# second in even ones, so that a drift of the host over the session
# falls on both sides alike. -s adds `--seconds S` to every run.
#
# It prints, as markdown, each end-to-end metric's median and quartiles
# on either side, the ratio of the medians and the pairs the change
# wins (is strictly better in, by the direction the benchmark prints),
# then every pair's values. The raw output of each run stays in dir
# (default: a fresh directory under $TMPDIR), named side.i.out.
# benchmark/ is only run, never changed; each checkout builds into its
# own .bench_build/.
set -eu

workload=ap-compute pairs=10 base=HEAD seconds= dir=
while getopts w:n:b:s:d: opt; do
    case $opt in
    w) workload=$OPTARG ;;
    n) pairs=$OPTARG ;;
    b) base=$OPTARG ;;
    s) seconds=$OPTARG ;;
    d) dir=$OPTARG ;;
    *) echo "usage: $0 [-w workload] [-n pairs] [-b base] [-s seconds] [-d dir]" >&2; exit 2 ;;
    esac
done

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --short "$base")
[ -n "$dir" ] || dir=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
mkdir -p "$dir"
rm -rf "$dir/parent"
mkdir "$dir/parent"
git -C "$root" archive "$base" | tar -x -C "$dir/parent"

run() { # side pair
    run_side=$1 run_pair=$2
    if [ "$run_side" = parent ]; then checkout=$dir/parent; else checkout=$root; fi
    set -- --workload "$workload" --seed "$run_pair" --trace 0
    [ -z "$seconds" ] || set -- "$@" --seconds "$seconds"
    echo "pairs: $workload pair $run_pair: $run_side" >&2
    (cd "$checkout" && bash benchmark/run.sh "$@") >"$dir/$run_side.$run_pair.out" 2>"$dir/$run_side.$run_pair.err" || {
        echo "pairs: the $run_side run of pair $run_pair failed; see $dir/$run_side.$run_pair.err" >&2
        exit 1
    }
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$i"; run change "$i"
    else
        run change "$i"; run parent "$i"
    fi
    i=$((i + 1))
done

# Each run's report prints one line per metric,
#   "  name  value unit  lower|higher is better  bound ...",
# and ends in a JSON line whose "value"s are exact; the values come from
# that line, the direction from the report.
i=1
while [ "$i" -le "$pairs" ]; do
    for side in parent change; do
        f=$dir/$side.$i.out
        awk '$5 == "is" && $6 == "better" { print "better", $1, $4 }' "$f"
        tail -n 1 "$f" | grep -o '"[a-z_0-9.]*":{"value":[^,}]*' |
            sed 's/^"\([^"]*\)":{"value":\(.*\)$/\1 \2/' |
            awk -v side="$side" -v i="$i" '{ print "value", side, i, $1, $2 }'
    done
    i=$((i + 1))
done | awk -v pairs="$pairs" -v workload="$workload" -v rev="$rev" '
function sorted(side, m,    k, j, t, n) {
    n = 0
    for (k = 1; k <= pairs; k++) if ((side, k, m) in v) s[++n] = v[side, k, m]
    for (k = 2; k <= n; k++) {
        t = s[k]
        for (j = k - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
        s[j + 1] = t
    }
    return n
}
function q(n, p,    x, lo) { # linear interpolation between order statistics
    if (n == 0) return "nan"
    x = 1 + (n - 1) * p; lo = int(x)
    return lo >= n ? s[n] : s[lo] + (x - lo) * (s[lo + 1] - s[lo])
}
function stat(side, m,    n) {
    n = sorted(side, m)
    return sprintf("%.6g [%.6g, %.6g]", q(n, 0.5), q(n, 0.25), q(n, 0.75))
}
$1 == "better" { better[$2] = $3; next }
$1 == "value" {
    v[$2, $3, $4] = $5
    if (!($4 in seen)) { seen[$4] = 1; order[++nm] = $4 }
}
END {
    printf "## %s: %d alternating pairs, %s (parent) against the working tree (change)\n\n", workload, pairs, rev
    print "| metric | better | parent median [q1, q3] | change median [q1, q3] | change / parent | change wins |"
    print "|---|---|---:|---:|---:|---:|"
    for (k = 1; k <= nm; k++) {
        m = order[k]
        if (!(m in better)) continue
        wins = ties = 0
        for (i = 1; i <= pairs; i++) {
            a = v["parent", i, m]; b = v["change", i, m]
            if (a == b) ties++
            else if ((better[m] == "lower") == (b < a)) wins++
        }
        n = sorted("parent", m); pm = q(n, 0.5)
        n = sorted("change", m); cm = q(n, 0.5)
        ratio = pm == 0 ? "—" : sprintf("%.4f", cm / pm)
        printf "| `%s` | %s | %s | %s | %s | %d of %d%s |\n", m, better[m], stat("parent", m), stat("change", m), ratio, wins, pairs, ties ? sprintf(" (%d equal)", ties) : ""
    }
    printf "\n| pair | first |"
    for (k = 1; k <= nm; k++) if (order[k] in better) printf " `%s` parent → change |", order[k]
    printf "\n|---:|---|"
    for (k = 1; k <= nm; k++) if (order[k] in better) printf "---|"
    printf "\n"
    for (i = 1; i <= pairs; i++) {
        printf "| %d | %s |", i, i % 2 ? "parent" : "change"
        for (k = 1; k <= nm; k++) if (order[k] in better) printf " %.6g → %.6g |", v["parent", i, order[k]], v["change", i, order[k]]
        printf "\n"
    }
}'
