#!/usr/bin/env bash
# End-to-end checks of the installed command line, run by the CI workflow's
# "Installed script" step. Every command runs as $GRAPHDIV (default
# `graphdiv`), and the script writes its reports into the current
# directory, so run it from an empty one. To run it on a source checkout
# without installing, from the repository root:
#
#   repo=$PWD; mkdir -p /tmp/graphdiv-ci && cd /tmp/graphdiv-ci
#   GRAPHDIV="python -m graphdiv.cli" PYTHONPATH="$repo/src" bash "$repo/ci/installed_script.sh"
set -eo pipefail
GRAPHDIV=${GRAPHDIV:-graphdiv}
$GRAPHDIV divide --mode perfect --exhaustive 6 --filter bullfree,p5free --out r.json
$GRAPHDIV verify --division r.json --out v.json
python -c "import json; json.dump([[1, 2, 3, 0, 2, 1]] * 200, open('w.json', 'w'))"
$GRAPHDIV divide --mode perfect --exhaustive 6 --filter bullfree,p5free --weights w.json --out rw.json
$GRAPHDIV verify --division rw.json
python -c "import json; r = json.load(open('r.json')); x = r['records'][-1]; d = x['division']; d['w'], d['p'] = sorted(d['p'] + d['w']), []; r['records'] = [x]; json.dump(r, open('rbad.json', 'w'))"
code=0; $GRAPHDIV verify --division rbad.json --out rbadv.json || code=$?; test "$code" -eq 1
python -c "import json; e = json.load(open('rbadv.json'))['records'][0]['error']; assert e == 'maximum clique weight of W is 6, not below 6', e"
python -c "import json; r = json.load(open('rw.json')); x = r['records'][-1]; d = x['division']; d['w'], d['p'] = sorted(d['p'] + d['w']), []; r['records'] = [x]; json.dump(r, open('rwbad.json', 'w'))"
code=0; $GRAPHDIV verify --division rwbad.json --out rwbadv.json || code=$?; test "$code" -eq 1
python -c "import json; e = json.load(open('rwbadv.json'))['records'][0]['error']; assert e == 'maximum clique weight of W is 9, not below 9', e"
$GRAPHDIV divide --mode perfect --exhaustive 7 --filter bullfree,oddholefree --out r7.json
$GRAPHDIV verify --division r7.json
python -c "import hashlib, json; from graphdiv.report import scrub_volatile; t = json.dumps(scrub_volatile(json.load(open('r7.json'))), sort_keys=True, indent=2); d = hashlib.sha256(t.encode()).hexdigest()[:16]; assert d == '90aa55c705e182d6', d"
python -c "import json; b = [s for x in json.load(open('r7.json'))['records'] for s in x['log'] if s['kind'] == 'base-partition']; bad = [s for s in b if s['chosen'] != min(s['p'] + s['w']) or 'rejected' in s]; assert b and not bad, bad[:3]"
python -c "import json; r = json.load(open('r7.json'))['records']; ok = [x for x in r if x['status'] == 'ok']; q = sum(any(s['kind'] == 'quotient' for s in x['log']) for x in ok); assert len(r) == len(ok) == 593 and q >= 500, (len(r), len(ok), q)"
python -c "import json; c = {f: [[sum(s.get('case', s['kind']) == k for s in x['log']) for k in ('base-partition', 'xhat-in-p', 'xhat-in-w')] for x in json.load(open(f))['records'] if x['status'] == 'ok' and x['log'][0]['positive']] for f in ('r7.json', 'rw.json')}; assert all(b == 1 + p for v in c.values() for b, p, _ in v), 'base partitions'; assert all(sum(w for _, _, w in v) for v in c.values()), 'no xhat-in-w'"
python -c "from graphdiv import complete_graph, emit_graph6, empty_graph; open('k8.g6', 'w').write(emit_graph6(complete_graph(8)) + '\n' + emit_graph6(empty_graph(8)) + '\n')"
$GRAPHDIV divide --mode perfect --in k8.g6 --out k8.json
python -c "import json; k = [[s['kind'] for s in x['log']] for x in json.load(open('k8.json'))['records']]; assert k == [['restrict', 'base-partition']] * 2, k"
$GRAPHDIV color --mode perfect --exhaustive 6 --filter bullfree,oddholefree --out col.json
$GRAPHDIV verify --division col.json
python -c "import hashlib, json; from graphdiv.report import scrub_volatile; t = json.dumps(scrub_volatile(json.load(open('col.json'))), sort_keys=True, indent=2); d = hashlib.sha256(t.encode()).hexdigest()[:16]; assert d == '706554f932f356d3', d"
python -c "from graphdiv import Graph, emit_graph6; n = 16; open('cp.g6', 'w').write(emit_graph6(Graph(n, tuple(((1 << n) - 1) & ~(1 << v) & ~(1 << (v ^ 1)) for v in range(n)))) + '\n')"
$GRAPHDIV divide --mode perfect --in cp.g6 --out cpd.json
$GRAPHDIV color --mode perfect --in cp.g6 --out cp.json
$GRAPHDIV verify --division cpd.json
$GRAPHDIV verify --division cp.json
$GRAPHDIV conjecture --max-n 7 --out c.json
python -c "import json; c = json.load(open('c.json')); r, s = c['records'], c['summary']; assert len(r) == 1252 and all(x['status'] == 'ok' for x in r) and s['counterexamples'] == s['necessity_violations'] == [], (len(r), s['counterexamples'], s['necessity_violations'])"
code=0; $GRAPHDIV color --mode two --exhaustive 5 --format csv --out t.csv || code=$?; test "$code" -eq 4
code=0; $GRAPHDIV divide --mode two --exhaustive 7 --filter p5free,c5free --out t7.json || code=$?; test "$code" -eq 4
python -c "import json; r = json.load(open('t7.json'))['records']; ok = [x for x in r if x['status'] == 'ok']; m = sum(any(s.get('rule') == 'max-neighbors-in-m' for s in x['log']) for x in ok); assert len(r) == 624 and len(ok) == 623 and m == 289, (len(r), len(ok), m); assert all(x['log'][0]['kind'] == 'component-split' for x in ok)"
$GRAPHDIV verify --division t7.json --out t7v.json
python -c "import json; r = json.load(open('t7v.json'))['records']; ok = [x for x in r if x['status'] == 'ok']; assert len(r) == len(ok) == 624, (len(r), len(ok))"
$GRAPHDIV color --mode two --exhaustive 7 --filter p5free,c5free --out c7.json
python -c "import json; r = json.load(open('c7.json'))['records']; assert len(r) == 624 and all(x['status'] == 'ok' for x in r), len(r)"
python -c "import hashlib, json; from graphdiv.report import scrub_volatile; t = json.dumps(scrub_volatile(json.load(open('c7.json'))), sort_keys=True, indent=2); d = hashlib.sha256(t.encode()).hexdigest()[:16]; assert d == '6253c6ed025a91b6', d"
$GRAPHDIV verify --division c7.json --out c7v.json
python -c "import json; r = json.load(open('c7v.json'))['records']; ok = [x for x in r if x['status'] == 'ok']; assert len(r) == len(ok) == 624, (len(r), len(ok))"
$GRAPHDIV classify --exhaustive 7 --out e.json
python -c "import json; r = json.load(open('e.json'))['records']; assert len(r) == 1044 and all(x['status'] == 'ok' for x in r), len(r)"
$GRAPHDIV classify --exhaustive 8 --out e8.json
python -c "import json; r = json.load(open('e8.json'))['records']; assert len(r) == 12346 and all(x['status'] == 'ok' for x in r), len(r); c = {k: sum(x['class'][k] for x in r) for k in ('p5_free', 'c5_free', 'bull_free', 'odd_hole_free', 'perfect')}; assert c == {'p5_free': 4550, 'c5_free': 8911, 'bull_free': 3774, 'odd_hole_free': 8899, 'perfect': 8887}, c"
python -c "import hashlib, json; from graphdiv.report import scrub_volatile; t = json.dumps(scrub_volatile(json.load(open('e8.json'))), sort_keys=True, indent=2); d = hashlib.sha256(t.encode()).hexdigest()[:16]; assert d == 'b12e0259d26beb1a', d"
python -c "import json; w = [x['class']['witnesses'] for x in json.load(open('e8.json'))['records']]; bad = [x for x in w if 'c5' in x and 'odd_hole' in x and x['c5']['vertices'] != x['odd_hole']['vertices']]; assert not bad, bad[:3]"
python -c "import hashlib; from graphdiv import emit_graph6, nonisomorphic_graphs; g = nonisomorphic_graphs(9); d = hashlib.sha256(''.join(emit_graph6(x) + '\n' for x in g).encode()).hexdigest()[:16]; assert (len(g), d) == (274668, '1681507af3f1e5ed'), (len(g), d)"
python -c "from graphdiv import BULL_PATTERN, cycle_graph, emit_graph6; open('c5.g6', 'w').write(emit_graph6(cycle_graph(5)) + '\n'); open('bull.g6', 'w').write(emit_graph6(BULL_PATTERN) + '\n')"
code=0; $GRAPHDIV color --mode two --in c5.g6 --out c5c.json || code=$?; test "$code" -eq 4
python -c "import json; w = json.load(open('c5c.json'))['records'][0]['witnesses']; assert w == [{'pattern': 'C5', 'vertices': [0, 1, 2, 3, 4]}], w"
code=0; $GRAPHDIV color --mode perfect --in bull.g6 --out bc.json || code=$?; test "$code" -eq 4
python -c "import json; w = json.load(open('bc.json'))['records'][0]['witnesses']; assert w == [{'pattern': 'bull', 'vertices': [0, 1, 2, 3, 4]}], w"
$GRAPHDIV verify --division c5c.json
$GRAPHDIV verify --division bc.json
python -c "import json; r = json.load(open('bc.json')); r['records'][0]['witnesses'][0]['vertices'].reverse(); json.dump(r, open('bcbad.json', 'w'))"
code=0; $GRAPHDIV verify --division bcbad.json || code=$?; test "$code" -eq 1
python -c "from graphdiv import complement, cycle_graph, emit_graph6, twin_substitute; open('ca7.g6', 'w').write(emit_graph6(twin_substitute(complement(cycle_graph(7)), 0, adjacent=True)) + '\n')"
$GRAPHDIV classify --in ca7.g6 --out ca7.json
python -c "import json; r = json.load(open('ca7.json'))['records']; c = r[0]['class']; assert len(r) == 1 and c['perfect'] is False and c['witnesses']['imperfection']['pattern'] == 'odd-antihole(7)', r"
$GRAPHDIV classify --in ca7.g6 --filter perfect --out ca7p.json
python -c "import json; r = json.load(open('ca7p.json'))['records']; assert r == [], r"
python -c "from graphdiv import find_induced, path_graph; e = find_induced(path_graph(40), path_graph(31)); assert e.vertices == tuple(range(31)), e"
python -c "import random; from graphdiv import Graph, complement, cycle_graph, emit_graph6; rng = random.Random('ci/odd-cycles'); gs = [h for k in range(7, 16, 2) for h in (cycle_graph(k), complement(cycle_graph(k)))]; ps = [rng.sample(range(g.n), g.n) for g in gs]; open('ck.g6', 'w').write(''.join(emit_graph6(Graph.from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])) + '\\n' for g, p in zip(gs, ps)))"
$GRAPHDIV classify --in ck.g6 --out ck.json
python -c "import json; from graphdiv import Embedding, embedding_is_valid, parse_graph6, pattern_for_name; w = [(parse_graph6(x['graph6']), x['class']['witnesses']['imperfection']) for x in json.load(open('ck.json'))['records']]; names = sorted(e['pattern'] for _, e in w); assert names == sorted(f'odd-{kind}({k})' for k in range(7, 16, 2) for kind in ('hole', 'antihole')), names; bad = [e for g, e in w if not (e['pattern'].endswith(f'({g.n})') and embedding_is_valid(g, pattern_for_name(e['pattern']), Embedding(e['pattern'], tuple(e['vertices']))))]; assert not bad, bad"
code=0; $GRAPHDIV classify --random 40,0.5,1 || code=$?; test "$code" -eq 2
code=0; $GRAPHDIV conjecture --max-n 10 || code=$?; test "$code" -eq 2
code=0; $GRAPHDIV classify --exhaustive 4 --budget-ms -1 || code=$?; test "$code" -eq 2
long=$(python -c "print('x' * 3000)")
code=0; $GRAPHDIV classify --exhaustive 4 --filter "$long" 2> err.txt || code=$?; test "$code" -eq 2
test "$(wc -c < err.txt)" -lt 200
code=0; $GRAPHDIV classify --random "5,$long,2" 2> err.txt || code=$?; test "$code" -eq 2
test "$(wc -c < err.txt)" -lt 200
