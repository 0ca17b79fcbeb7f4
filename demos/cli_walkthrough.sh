#!/bin/sh
# End-to-end tour of the command line: emit a named graph, truncate
# it, color the truncation, verify the result, and render DOT.
# Requires a `truncolor` command on PATH: the installed package, or a
# shim that runs `python -m truncolor.cli "$@"` with an absolute PYTHONPATH.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

# expect_fail STATUS PREFIX WHY COMMAND...: COMMAND must exit with
# STATUS (1 for a domain error, 2 for an undecided search), with stderr
# starting with PREFIX and no Python traceback.
expect_fail() {
    want=$1 prefix=$2 why=$3
    shift 3
    status=0
    "$@" 2> stderr.txt || status=$?
    if [ "$status" -ne "$want" ] || grep -q Traceback stderr.txt; then
        echo "FAIL: '$*' exited $status, expected $want ($why)" >&2
        cat stderr.txt >&2
        exit 1
    fi
    case $(cat stderr.txt) in
        "$prefix"*) echo "exit $want as expected: $why" ;;
        *)
            echo "FAIL: '$*' stderr does not start with '$prefix'" >&2
            cat stderr.txt >&2
            exit 1
            ;;
    esac
}

echo "== demo graph"
truncolor demo k4 > k4.json
truncolor oracle k4.json

echo "== complete truncation, colored with max valency"
truncolor color-complete k4.json --dot k4_tr.dot > k4_bundle.json
truncolor verify k4_bundle.json
# verify checks the parsed colors in place; --dot alone builds the
# coloring to draw it, each edge labelled with its color.
truncolor verify k4_bundle.json --dot k4_verify.dot
if ! grep -q -- ' -- .*label="[0-9]*"' k4_verify.dot; then
    echo "FAIL: verify --dot drew no colored edges" >&2
    cat k4_verify.dot >&2
    exit 1
fi
# verify checks a bundle's flat edges against its truncation before it
# builds the flat graph; a changed edge is named by its index.
sed 's/\[[0-9]*, [0-9]*\]\], "coloring"/[0, 5]], "coloring"/' k4_bundle.json > k4_bad_edge.json
if cmp -s k4_bundle.json k4_bad_edge.json; then
    echo "FAIL: the last flat edge of the K4 bundle was not changed" >&2
    exit 1
fi
expect_fail 1 "error:" "a flat edge differs from the truncation's" \
    truncolor verify k4_bad_edge.json
if ! grep -q 'edges\[' stderr.txt; then
    echo "FAIL: the flat-edge error does not name an index of \"edges\"" >&2
    cat stderr.txt >&2
    exit 1
fi
# verify accepts a truncation's coloring cluster by cluster; a clash is
# named on the flat graph, by end vertex.  Recoloring the last
# constituent edge (id 17, on ends 9 and 11) from 2 to 0 clashes at end 9.
sed 's/, 2\]}}$/, 0]}}/' k4_bundle.json > k4_bad_color.json
if cmp -s k4_bundle.json k4_bad_color.json; then
    echo "FAIL: the last color of the K4 bundle was not changed" >&2
    exit 1
fi
expect_fail 1 "edges " "a constituent edge shares its color at an end" \
    truncolor verify k4_bad_color.json > k4_bad_color_verify.json
if ! grep -q '"proper": false' k4_bad_color_verify.json \
    || ! grep -q '"vertex": 9,' k4_bad_color_verify.json; then
    echo "FAIL: verify did not name the clash at end 9" >&2
    cat k4_bad_color_verify.json >&2
    exit 1
fi
head -3 k4_tr.dot
# has_truncation_drawing FILE: the drawing groups each cluster and
# draws the matching bold, so the truncation was flattened to draw it.
has_truncation_drawing() {
    if ! grep -q 'subgraph cluster_' "$1" || ! grep -q 'style=bold' "$1"; then
        echo "FAIL: $1 lacks the clusters or the bold matching of a truncation" >&2
        exit 1
    fi
}
has_truncation_drawing k4_tr.dot
truncolor truncate k4.json --kind cyclic --dot k4_cyclic_tr.dot > k4_cyclic_tr.json
has_truncation_drawing k4_cyclic_tr.dot

echo "== strong constituents"
truncolor truncate k4.json --kind arboreal > k4_arboreal.json
truncolor color-strong k4_arboreal.json --dot k4_strong.dot > k4_strong.json
truncolor verify k4_arboreal.json k4_strong.json
# The drawing flattens the truncation only when --dot asks for it.
if [ ! -s k4_strong.dot ] || ! grep -q -- ' -- ' k4_strong.dot; then
    echo "FAIL: color-strong --dot wrote no edges" >&2
    exit 1
fi
# Round trip through a cyclic truncation: K5 is 4-regular, so every
# cluster holds a 4-cycle, colored in 2 colors, and the matching takes
# the third.
truncolor demo k5 > k5.json
truncolor truncate k5.json --kind cyclic > k5_cyclic.json
truncolor color-strong k5_cyclic.json > k5_cyclic_strong.json
truncolor verify k5_cyclic.json k5_cyclic_strong.json > k5_cyclic_verify.json
if ! grep -q '"proper": true' k5_cyclic_verify.json || ! grep -q '"palette": 3' k5_cyclic_verify.json; then
    echo "FAIL: the strong coloring of K5's cyclic truncation does not verify in 3 colors" >&2
    cat k5_cyclic_verify.json >&2
    exit 1
fi
truncolor demo two-k5-bridge > bridge.json
truncolor truncate bridge.json --kind complete > bridge_complete.json
expect_fail 1 "not applicable:" "the K5 constituent is overfull in 4 colors" \
    truncolor color-strong bridge_complete.json > bridge_refusal.json
# The refusal JSON carries the search nodes it cost.
if ! grep -q '"applicable": false' bridge_refusal.json || ! grep -q '"nodes":' bridge_refusal.json; then
    echo "FAIL: the color-strong refusal lacks \"applicable\": false or its node count" >&2
    cat bridge_refusal.json >&2
    exit 1
fi

echo "== complete truncations stored by reference"
# Both files carry the truncation as its source plus "kind": "complete";
# verify rebuilds it and checks the bundle's nested coloring against it.
truncolor color-complete bridge.json > bridge_bundle.json
truncolor verify bridge_complete.json bridge_bundle.json

echo "== small clusters in a small palette"
# K_{2,5} (D = 5): two order-5 clusters and five order-2 clusters; each
# order-2 cluster is colored in palette 3 and mapped back into D colors.
cat > k25.json <<'JSON'
{"vertices": [0, 1, 2, 3, 4, 5, 6],
 "edges": [[0, 2], [1, 2], [0, 3], [1, 3], [0, 4], [1, 4], [0, 5], [1, 5], [0, 6], [1, 6]]}
JSON
truncolor color-complete k25.json > k25_bundle.json
truncolor verify k25_bundle.json > k25_verify.json
if ! grep -q '"proper": true' k25_verify.json; then
    echo "FAIL: the K_{2,5} coloring does not verify" >&2
    cat k25_verify.json >&2
    exit 1
fi
cat k25_verify.json

echo "== pinned route colorings"
# has_colors FILE LIST: FILE's coloring carries exactly the colors LIST.
has_colors() {
    if ! grep -qF "\"colors\": $2}" "$1"; then
        echo "FAIL: the colors in $1 are not the pinned $2" >&2
        exit 1
    fi
}
# D = 7 with an order-5 cluster padded to 6 positions, so the D-1
# lemma's conflict walks run: 39 edges in 7 colors.
cat > d7.json <<'JSON'
{"vertices": [0, 1, 2], "edges": [[0, 1], [0, 1], [0, 1], [0, 1], [0, 1], [1, 2], [1, 2]]}
JSON
truncolor color-complete d7.json > d7_bundle.json
truncolor verify d7_bundle.json > d7_verify.json
if ! grep -q '"proper": true, "palette": 7, "colors_used": 7' d7_verify.json; then
    echo "FAIL: the D = 7 coloring does not verify in 7 colors" >&2
    cat d7_verify.json >&2
    exit 1
fi
has_colors d7_bundle.json "[0, 1, 2, 3, 4, 5, 6, 3, 5, 6, 1, 0, 5, 2, 4, 6, 0, 4, 1, 5, 2, 6, 3, \
5, 2, 6, 3, 0, 6, 3, 0, 4, 0, 4, 1, 1, 5, 2, 0]"
# K5 is 4-regular: the matching takes 0, each 4-cycle alternates 1, 2.
truncolor cyclic-color k5.json --strategy even > k5_even.json
truncolor verify k5_even.json
has_colors k5_even.json "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, \
2, 1, 1, 2, 2, 1]"
# has_text FILE TEXT: FILE holds TEXT verbatim.
has_text() {
    if ! grep -qF "$2" "$1"; then
        echo "FAIL: $1 lacks the pinned $2" >&2
        exit 1
    fi
}
# Seeded cycle orders: on K5's clusters of four, vertices 1, 2 and 4
# draw orders that trace one cycle, so their constituents repeat it and
# share one checked tuple.  Each 4-cycle alternates 1, 2 along its order.
truncolor cyclic-color k5.json --strategy even --seed 3 > k5_seeded.json
truncolor verify k5_seeded.json
has_text k5_seeded.json '"orders": {"0": [1, 2, 0, 3], "1": [3, 2, 0, 1], "2": [3, 1, 0, 2], '\
'"3": [3, 2, 1, 0], "4": [1, 0, 2, 3]}'
has_text k5_seeded.json '"constituents": {"0": [[0, 2], [0, 3], [1, 2], [1, 3]], '\
'"1": [[0, 1], [0, 2], [1, 3], [2, 3]], "2": [[0, 1], [0, 2], [1, 3], [2, 3]], '\
'"3": [[0, 1], [0, 3], [1, 2], [2, 3]], "4": [[0, 1], [0, 2], [1, 3], [2, 3]]}'
has_colors k5_seeded.json "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 1, 2, 1, 2, 2, 1, 2, 1, 1, 2, 1, 2, \
2, 1, 1, 2, 2, 1]"

echo "== sun verdicts"
truncolor sun --vector 3,3,1 --dot sun.dot
truncolor sun --vector 2,1,1
# An all-even vector takes the even construction: 8 ends, 4 colors, the
# zero entry included.
truncolor sun --vector 0,2,4,2 > even_sun.json
if ! grep -q '"verdict": "ADMISSIBLE"' even_sun.json || ! grep -q '"palette": 4' even_sun.json; then
    echo "FAIL: the even sun for 0,2,4,2 is not admissible in palette 4" >&2
    cat even_sun.json >&2
    exit 1
fi
cat even_sun.json

echo "== class II detection via the oracle"
truncolor demo petersen > petersen.json
expect_fail 1 "class II:" "class II witness" truncolor color-complete petersen.json
truncolor oracle petersen.json
expect_fail 1 "error: --edge-cap must be nonnegative" "a negative edge cap" \
    truncolor oracle petersen.json --edge-cap -1

echo "== class II decided with no search"
# The doubled triangle with a pendant edge at each vertex (D = 5): its
# core, the valency-5 vertices, is the doubled triangle, whose 6 edges
# on 3 vertices need 6 colors, so the witness costs 0 nodes.
cat > tri.json <<'JSON'
{"vertices": [0, 1, 2, 3, 4, 5],
 "edges": [[0, 1], [0, 1], [1, 2], [1, 2], [0, 2], [0, 2], [0, 3], [1, 4], [2, 5]]}
JSON
truncolor color-complete tri.json --witness --budget 0 > tri_witness.json
if ! grep -q '"nodes": 0' tri_witness.json; then
    echo "FAIL: the doubled-triangle witness spent search nodes" >&2
    cat tri_witness.json >&2
    exit 1
fi

echo "== cubic routes"
truncolor cyclic-color k4.json --strategy classone > k4_cyclic.json
truncolor verify k4_cyclic.json
truncolor cyclic-color k4.json --strategy enabling > k4_enabling.json
truncolor verify k4_enabling.json
truncolor cyclic-color k4.json --strategy enabling --enabling-edges 0,5 > k4_enabling_edges.json
truncolor verify k4_enabling_edges.json
expect_fail 1 "error:" "no class I cyclic truncation" \
    truncolor cyclic-color petersen.json --strategy enabling > petersen_enabling.json
# The refusal JSON carries the parity search's node count.
if ! grep -q '"applicable": false' petersen_enabling.json || ! grep -q '"nodes":' petersen_enabling.json; then
    echo "FAIL: the enabling refusal lacks \"applicable\": false or its node count" >&2
    cat petersen_enabling.json >&2
    exit 1
fi
expect_fail 2 "undecided: parity coloring search exceeded budget of 0 nodes" \
    "the parity search is out of budget" \
    truncolor cyclic-color petersen.json --strategy enabling --budget 0

echo "== bad input names its file"
# The loaders check JSON shape; the graph, coloring and truncation
# objects check every other rule, and their message follows the file name.
echo '{"vertices": [0, 1], "edges": [[0, 0]]}' > loop.json
expect_fail 1 "error: loop.json: edge 0 is a loop" "a loop in the graph" \
    truncolor oracle loop.json
echo '{"palette": 3, "colors": [true, 1, 2, 2, 1, 0]}' > bool.json
expect_fail 1 "error: bool.json: edge 0 has color True, not an int" "a boolean color" \
    truncolor verify k4.json bool.json
echo '{"palette": -1, "colors": []}' > negative.json
expect_fail 1 "error: negative.json: palette size -1 is not a nonnegative int" \
    "a negative palette" truncolor verify k4.json negative.json
cat > half.json <<'JSON'
{"source": {"vertices": [0, 1], "edges": [[0, 1], [0, 1]]},
 "constituents": {"0": [[0, 1.5]], "1": []}}
JSON
expect_fail 1 "error: half.json: constituent at vertex" "a non-integer constituent position" \
    truncolor color-strong half.json
# JSON true equals 1 in Python, yet it is no position: vertex 1 is
# named even though vertex 0 holds the equal pair [0, 1].
cat > true.json <<'JSON'
{"source": {"vertices": [0, 1], "edges": [[0, 1], [0, 1]]},
 "constituents": {"0": [[0, 1]], "1": [[0, true]]}}
JSON
expect_fail 1 "error: true.json: constituent at vertex 1: pair 0 is not a pair of integers" \
    "a boolean constituent position" truncolor color-strong true.json
# Files the JSON parser itself fails on are named like syntax errors.
printf '\377\376{}' > not_utf8.json
expect_fail 1 "error: not_utf8.json:" "a file that is not UTF-8" \
    truncolor oracle not_utf8.json
head -c 100000 /dev/zero | tr '\0' '[' > deep.json
expect_fail 1 "error: deep.json:" "arrays nested past the parser's recursion limit" \
    truncolor oracle deep.json
head -c 5000 /dev/zero | tr '\0' '1' > long_int.json
expect_fail 1 "error: long_int.json:" "an integer literal past the interpreter's digit limit" \
    truncolor oracle long_int.json
# A bundle's flat edges hold plain ints, as every loader reads them:
# [0.0, 1] equals the first flat edge in value but is refused.  (The
# source's edges start [0, 1], [0, 2]; the flat ones [0, 1], [2, 3].)
sed 's/"edges": \[\[0, 1\], \[2, 3\]/"edges": [[0.0, 1], [2, 3]/' k4_bundle.json > k4_float_edge.json
if cmp -s k4_bundle.json k4_float_edge.json; then
    echo "FAIL: the first flat edge of the K4 bundle was not changed" >&2
    exit 1
fi
expect_fail 1 "error: k4_float_edge.json: edges[0] is [0.0, 1]" "a float flat edge" \
    truncolor verify k4_float_edge.json

echo "all steps verified"
