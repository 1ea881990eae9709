#include "dashboard/dashboard.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <sstream>

#include "common/json.hh"
#include "common/util.hh"
#include "report/report.hh"

namespace capart::dashboard
{

namespace fs = std::filesystem;

namespace
{

/**
 * Make a JSON blob safe inside a <script> element: the only sequence
 * HTML parsing cares about is "</" (it could open "</script>"), and
 * "\/" is a legal JSON escape for "/", so the replacement never
 * changes the parsed value.
 */
std::string
scriptSafe(std::string json)
{
    std::string out;
    out.reserve(json.size());
    for (std::size_t i = 0; i < json.size(); ++i) {
        if (json[i] == '<' && i + 1 < json.size() && json[i + 1] == '/') {
            out += "<\\/";
            ++i;
        } else {
            out += json[i];
        }
    }
    return out;
}

/** One attribution batch as its standalone-document JSON text. */
std::string
batchJson(const obs::AttributionBatch &batch)
{
    std::ostringstream os;
    obs::writeAttributionJson(os, batch);
    std::string text = os.str();
    while (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

// The page shell. Split around the embedded blob; the JavaScript lives
// in kPageScript below. Everything inline: no fonts, no CDNs, no
// fetches — the file must render from a CI artifact tab, offline.
constexpr const char *kPageHead = R"HTML(<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>__TITLE__</title>
<style>
:root { color-scheme: light; }
body { font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
       margin: 0 auto; max-width: 960px; padding: 16px 24px 48px;
       color: #1a1a1a; background: #fcfcfc; }
h1 { font-size: 22px; margin: 8px 0 2px; }
h2 { font-size: 16px; margin: 28px 0 4px; }
.meta { color: #666; margin: 0 0 16px; }
.sub { color: #666; font-size: 12px; margin: 0 0 8px; }
select { font: inherit; padding: 2px 6px; margin: 4px 0 12px; }
svg { display: block; background: #fff; border: 1px solid #e3e3e3;
      border-radius: 4px; margin: 4px 0 2px; }
.axis line, .axis path { stroke: #999; }
.grid line { stroke: #eee; }
.axis text { fill: #555; font-size: 11px; }
.ctitle { fill: #333; font-size: 12px; font-weight: 600; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 14px;
          font-size: 12px; color: #444; margin: 2px 0 10px; }
.legend span.swatch { display: inline-block; width: 10px; height: 10px;
          border-radius: 2px; margin-right: 5px; }
table { border-collapse: collapse; font-size: 12px; margin: 6px 0; }
th, td { border: 1px solid #ddd; padding: 3px 8px; text-align: right; }
th { background: #f3f3f3; }
td.s, th.s { text-align: left; font-family: ui-monospace, monospace; }
.empty { color: #888; font-style: italic; margin: 12px 0; }
</style>
</head>
<body>
<script type="application/json" id="capart-data">)HTML";

constexpr const char *kPageMiddle = R"HTML(</script>
<h1 id="page-title"></h1>
<p class="meta" id="page-meta"></p>
<div id="batch-bar"></div>
<div id="charts"></div>
<h2>Partitioner decisions</h2>
<p class="sub">One row per control decision, with the complete
recorded inputs (hover a row for every field). Pair points journal
Algorithm 6.2 rules (plus the watchdog's degradation rules); N-app
points journal one replayable record per Partitioner::decide, named
by policy (shared / fair / ucp / lfoc / dynamic).</p>
<div id="decisions"></div>
<h2>Sweep points</h2>
<div id="points"></div>
<script>
)HTML";

constexpr const char *kPageTail = R"HTML(</script>
</body>
</html>
)HTML";

// All client-side rendering. Vanilla JS + SVG only.
constexpr const char *kPageScript = R"JS('use strict';
(function () {
const data = JSON.parse(document.getElementById('capart-data').textContent);
const batches = data.batches || [];
const points = data.points || [];
const NS = 'http://www.w3.org/2000/svg';

const ownerColors = ['#4e79a7', '#f28e2b', '#59a045', '#b07aa1',
                     '#76b7b2', '#edc948', '#e15759', '#9c755f'];
const stallColors = ['#59a045', '#edc948', '#f28e2b', '#e15759',
                     '#9c755f'];
const stallNames = ['compute', 'L2', 'LLC', 'DRAM', 'queueing'];
const energyColors = ['#4e79a7', '#f28e2b', '#e15759'];
const energyNames = ['core busy', 'LLC', 'DRAM'];

function el(tag, attrs, parent) {
    const e = document.createElementNS(NS, tag);
    for (const k in attrs) e.setAttribute(k, attrs[k]);
    if (parent) parent.appendChild(e);
    return e;
}
function html(tag, cls, parent, text) {
    const e = document.createElement(tag);
    if (cls) e.className = cls;
    if (text !== undefined) e.textContent = text;
    if (parent) parent.appendChild(e);
    return e;
}
function fmt(v, digits) {
    if (!isFinite(v)) return String(v);
    const d = digits === undefined ? 3 : digits;
    if (v !== 0 && (Math.abs(v) >= 1e5 || Math.abs(v) < 1e-3))
        return v.toExponential(2);
    return Number(v.toFixed(d)).toString();
}
function popcount(m) {
    let n = 0;
    for (let v = m >>> 0; v; v &= v - 1) n++;
    return n;
}
function maskHex(m) { return '0x' + (m >>> 0).toString(16); }

function niceTicks(lo, hi, n) {
    if (!(hi > lo)) hi = lo + 1;
    const span = hi - lo;
    const step0 = Math.pow(10, Math.floor(Math.log10(span / n)));
    let step = step0;
    for (const m of [1, 2, 5, 10]) {
        if (span / (step0 * m) <= n) { step = step0 * m; break; }
    }
    const ticks = [];
    for (let v = Math.ceil(lo / step) * step; v <= hi + step * 1e-9;
         v += step)
        ticks.push(Math.abs(v) < step * 1e-9 ? 0 : v);
    return ticks;
}

// One chart frame: axes, grid, scales. Returns {plot, x, y, W, H}.
function frame(parent, o) {
    const M = {l: 56, r: 14, t: 26, b: 36};
    const W = o.w || 860, H = o.h || 200;
    const svg = el('svg', {width: W, height: H + M.t + M.b,
                           viewBox: '0 0 ' + W + ' ' + (H + M.t + M.b)},
                   parent);
    const iw = W - M.l - M.r;
    const x = v => M.l + (v - o.x0) / (o.x1 - o.x0 || 1) * iw;
    const y = v => M.t + H - (v - o.y0) / (o.y1 - o.y0 || 1) * H;
    const grid = el('g', {class: 'grid'}, svg);
    const axis = el('g', {class: 'axis'}, svg);
    el('text', {x: M.l, y: 15, class: 'ctitle'}, svg)
        .textContent = o.title;
    for (const t of niceTicks(o.x0, o.x1, 8)) {
        el('line', {x1: x(t), x2: x(t), y1: M.t, y2: M.t + H}, grid);
        el('line', {x1: x(t), x2: x(t), y1: M.t + H, y2: M.t + H + 4},
           axis);
        const lab = el('text', {x: x(t), y: M.t + H + 16,
                                'text-anchor': 'middle'}, axis);
        lab.textContent = fmt(t);
    }
    for (const t of niceTicks(o.y0, o.y1, 5)) {
        el('line', {x1: M.l, x2: W - M.r, y1: y(t), y2: y(t)}, grid);
        const lab = el('text', {x: M.l - 6, y: y(t) + 3,
                                'text-anchor': 'end'}, axis);
        lab.textContent = fmt(t);
    }
    el('line', {x1: M.l, x2: W - M.r, y1: M.t + H, y2: M.t + H}, axis);
    el('line', {x1: M.l, x2: M.l, y1: M.t, y2: M.t + H}, axis);
    el('text', {x: M.l + iw / 2, y: M.t + H + 31,
                'text-anchor': 'middle', class: 'axis'}, svg)
        .textContent = o.xlab || '';
    const yl = el('text', {x: 14, y: M.t + H / 2, class: 'axis',
                           'text-anchor': 'middle',
                           transform: 'rotate(-90 14 ' + (M.t + H / 2) +
                                      ')'}, svg);
    yl.textContent = o.ylab || '';
    return {plot: el('g', {}, svg), x, y, H, M, W, y0: o.y0, y1: o.y1};
}

function linePath(f, ts, vs, color, dash) {
    let d = '';
    for (let i = 0; i < ts.length; i++)
        d += (i ? 'L' : 'M') + f.x(ts[i]).toFixed(1) + ' ' +
             f.y(vs[i]).toFixed(1);
    const a = {d, fill: 'none', stroke: color, 'stroke-width': 1.6};
    if (dash) a['stroke-dasharray'] = dash;
    el('path', a, f.plot);
}

// Stacked area: layers[k][i] is layer k's value at ts[i].
function stackArea(f, ts, layers, colors) {
    const base = ts.map(() => 0);
    for (let k = 0; k < layers.length; k++) {
        const top = ts.map((_, i) => base[i] + layers[k][i]);
        let d = '';
        for (let i = 0; i < ts.length; i++)
            d += (i ? 'L' : 'M') + f.x(ts[i]).toFixed(1) + ' ' +
                 f.y(top[i]).toFixed(1);
        for (let i = ts.length - 1; i >= 0; i--)
            d += 'L' + f.x(ts[i]).toFixed(1) + ' ' +
                 f.y(base[i]).toFixed(1);
        el('path', {d: d + 'Z', fill: colors[k % colors.length],
                    'fill-opacity': 0.75, stroke: 'none'}, f.plot);
        for (let i = 0; i < ts.length; i++) base[i] = top[i];
    }
}

function marker(f, t, color, label) {
    const g = el('g', {}, f.plot);
    el('line', {x1: f.x(t), x2: f.x(t), y1: f.M.t, y2: f.M.t + f.H,
                stroke: color, 'stroke-width': 1,
                'stroke-dasharray': '3 2'}, g);
    el('title', {}, g).textContent = label;
}

function legend(parent, entries) {
    const box = html('div', 'legend', parent);
    for (const [label, color] of entries) {
        const item = html('span', '', box);
        const sw = html('span', 'swatch', item);
        sw.style.background = color;
        item.appendChild(document.createTextNode(label));
    }
}

function ownerLabel(batch, idx) {
    const parts = (batch.label || '').split('+');
    return parts.length > idx && parts[idx]
        ? parts[idx] + ' (app ' + idx + ')' : 'app ' + idx;
}

// ---- data shaping -----------------------------------------------------

function timesMs(samples) { return samples.map(s => s.t_us / 1000); }

function ownerSeries(samples, idx, get) {
    return samples.map(s => idx < s.owners.length
                            ? get(s.owners[idx]) : 0);
}

function ownerCount(samples) {
    let n = 0;
    for (const s of samples) n = Math.max(n, s.owners.length);
    return n;
}

// Per-interval rates from cumulative owner counters: rate[i] covers
// (t[i-1], t[i]]; the first sample has no interval and is dropped.
function rates(samples, idx, get, perSecond) {
    const out = [];
    for (let i = 1; i < samples.length; i++) {
        const a = idx < samples[i - 1].owners.length
                      ? get(samples[i - 1].owners[idx]) : 0;
        const b = idx < samples[i].owners.length
                      ? get(samples[i].owners[idx]) : 0;
        const dt = (samples[i].t_us - samples[i - 1].t_us) / 1e6;
        out.push(perSecond ? (dt > 0 ? (b - a) / dt : 0) : b - a);
    }
    return out;
}

function decisions(batch) {
    return (batch.journal || []).filter(e => e.kind === 'decision');
}
function sloEntries(batch) {
    return (batch.journal || []).filter(e => e.kind === 'slo');
}
function nappDecisions(batch) {
    return (batch.journal || [])
        .filter(e => e.kind === 'npartition_decision');
}
// A study point's sample stream concatenates several System runs.
// t_us is the sampling hardware thread's local time and jitters
// between threads, but the quantum counter q is strictly increasing
// within one System and restarts with it: split where q drops.
function segmentSamples(samples) {
    const segs = [];
    let cur = [];
    for (const s of samples) {
        if (cur.length && s.q <= cur[cur.length - 1].q) {
            segs.push(cur);
            cur = [];
        }
        cur.push(s);
    }
    if (cur.length) segs.push(cur);
    return segs;
}

// ---- chart sections ---------------------------------------------------

function drawOccupancy(parent, batch, title) {
    const s = batch.samples;
    const ts = timesMs(s);
    const n = ownerCount(s);
    const ways = s.length ? s[0].llc_ways : 12;
    const f = frame(parent, {title: title ||
        'LLC way occupancy by owner (stacked) and allocated ways',
        xlab: 'time (ms)', ylab: 'ways',
        x0: ts[0], x1: ts[ts.length - 1], y0: 0, y1: ways});
    const layers = [];
    for (let k = 0; k < n; k++)
        layers.push(ownerSeries(s, k, o => o.ways));
    stackArea(f, ts, layers, ownerColors);
    for (let k = 0; k < n; k++)
        linePath(f, ts, ownerSeries(s, k, o => popcount(o.mask)),
                 ownerColors[k], '5 3');
    for (const d of decisions(batch)) {
        const fl = d.fields || {};
        if (fl.applied && d.rule !== 'hold')
            marker(f, d.t_us / 1000, '#555',
                   d.rule + ': fg ' + fl.fg_ways + ' -> ' +
                   fl.target_fg_ways + ' ways');
    }
    for (const d of (batch.journal || [])) {
        if (d.kind === 'npartition_decision' && (d.fields || {}).seq > 0)
            marker(f, d.t_us / 1000, '#555',
                   d.rule + ' re-decision #' + d.fields.seq);
    }
    const entries = [];
    for (let k = 0; k < n; k++)
        entries.push([ownerLabel(batch, k) + ' occupied',
                      ownerColors[k]]);
    entries.push(['dashed: allocated ways', '#888']);
    entries.push(['markers: applied remasks', '#555']);
    legend(parent, entries);
}

function drawStalls(parent, batch) {
    const s = batch.samples;
    if (s.length < 2) return;
    const ts = timesMs(s).slice(1);
    const n = ownerCount(s);
    const get = [o => o.stall[0], o => o.stall[1], o => o.stall[2],
                 o => o.stall[3], o => o.stall[4]];
    for (let k = 0; k < n; k++) {
        const deltas = get.map(g => rates(s, k, g, false));
        const cyc = rates(s, k, o => o.cycles, false);
        const shares = deltas.map(layer =>
            layer.map((v, i) => cyc[i] > 0 ? v / cyc[i] : 0));
        const f = frame(parent, {title: 'Cycle breakdown — ' +
            ownerLabel(batch, k), xlab: 'time (ms)',
            ylab: 'share of cycles', h: 140,
            x0: ts[0], x1: ts[ts.length - 1], y0: 0, y1: 1});
        stackArea(f, ts, shares, stallColors);
    }
    legend(parent, stallNames.map((nm, i) => [nm, stallColors[i]]));
}

function drawEnergy(parent, batch) {
    const s = batch.samples;
    if (s.length < 2) return;
    const ts = timesMs(s).slice(1);
    const n = ownerCount(s);
    const get = [o => o.energy[0], o => o.energy[1], o => o.energy[2]];
    let ymax = 0;
    const perOwner = [];
    for (let k = 0; k < n; k++) {
        const layers = get.map(g => rates(s, k, g, true));
        perOwner.push(layers);
        for (let i = 0; i < ts.length; i++)
            ymax = Math.max(ymax, layers[0][i] + layers[1][i] +
                                  layers[2][i]);
    }
    for (let k = 0; k < n; k++) {
        const f = frame(parent, {title: 'Attributed power — ' +
            ownerLabel(batch, k), xlab: 'time (ms)', ylab: 'W', h: 140,
            x0: ts[0], x1: ts[ts.length - 1], y0: 0, y1: ymax || 1});
        stackArea(f, ts, perOwner[k], energyColors);
    }
    legend(parent, energyNames.map((nm, i) => [nm, energyColors[i]]));
}

function drawDram(parent, batch) {
    const s = batch.samples;
    if (s.length < 2) return;
    let chans = 0;
    for (const smp of s)
        for (const o of smp.owners)
            chans = Math.max(chans, o.chan.length);
    if (!chans) return;
    const ts = timesMs(s).slice(1);
    const layers = [];
    let ymax = 0;
    for (let c = 0; c < chans; c++) {
        const layer = [];
        for (let i = 1; i < s.length; i++) {
            let a = 0, b = 0;
            for (const o of s[i - 1].owners) a += o.chan[c] || 0;
            for (const o of s[i].owners) b += o.chan[c] || 0;
            const dt = (s[i].t_us - s[i - 1].t_us) / 1e6;
            layer.push(dt > 0 ? (b - a) / dt / 1e9 : 0);
        }
        layers.push(layer);
    }
    for (let i = 0; i < ts.length; i++) {
        let sum = 0;
        for (const l of layers) sum += l[i];
        ymax = Math.max(ymax, sum);
    }
    const f = frame(parent, {title: 'DRAM bandwidth by channel (stacked)',
        xlab: 'time (ms)', ylab: 'GB/s', h: 140,
        x0: ts[0], x1: ts[ts.length - 1], y0: 0, y1: ymax || 1});
    stackArea(f, ts, layers, ownerColors);
    legend(parent, layers.map((_, c) =>
        ['channel ' + c, ownerColors[c % ownerColors.length]]));
}

function drawSlo(parent, batch, title) {
    const evals = sloEntries(batch);
    if (!evals.length) return;
    const ts = evals.map(e => e.t_us / 1000);
    const short_ = evals.map(e => e.fields.burn_short || 0);
    const long_ = evals.map(e => e.fields.burn_long || 0);
    let ymax = 1.2;
    for (const v of short_.concat(long_))
        if (isFinite(v)) ymax = Math.max(ymax, v);
    const f = frame(parent, {title: title ||
        'SLO burn rate (short/long windows; shaded = in breach)',
        xlab: 'time (ms)', ylab: 'burn rate', h: 120,
        x0: ts[0], x1: ts[ts.length - 1], y0: 0, y1: ymax});
    for (let i = 0; i < evals.length; i++) {
        if (!evals[i].fields.in_breach) continue;
        const x0 = f.x(i ? ts[i - 1] : ts[i]), x1 = f.x(ts[i]);
        el('rect', {x: x0, y: f.M.t, width: Math.max(x1 - x0, 1),
                    height: f.H, fill: '#e15759',
                    'fill-opacity': 0.15}, f.plot);
    }
    linePath(f, [ts[0], ts[ts.length - 1]], [1, 1], '#999', '2 3');
    linePath(f, ts, short_, '#e15759');
    linePath(f, ts, long_, '#4e79a7');
    legend(parent, [['short-window burn', '#e15759'],
                    ['long-window burn', '#4e79a7'],
                    ['burn = 1 (budget-neutral)', '#999']]);
}

// ---- N-app view -------------------------------------------------------

const classColors = ['#edc948', '#e15759', '#4e79a7'];
const classNames = ['light', 'streaming', 'sensitive'];

// Horizontal mini bar chart: one bar per policy, used by the
// side-by-side comparison strip.
function barChart(parent, title, labels, values) {
    const ROW = 18;
    const M = {l: 110, r: 60, t: 24, b: 6};
    const W = 420, H = ROW * labels.length;
    const svg = el('svg', {width: W, height: H + M.t + M.b,
                           viewBox: '0 0 ' + W + ' ' + (H + M.t + M.b)},
                   parent);
    el('text', {x: 8, y: 15, class: 'ctitle'}, svg).textContent = title;
    let vmax = 0;
    for (const v of values)
        if (isFinite(v)) vmax = Math.max(vmax, v);
    const axis = el('g', {class: 'axis'}, svg);
    for (let i = 0; i < labels.length; i++) {
        const y = M.t + ROW * i;
        el('text', {x: M.l - 6, y: y + 13, 'text-anchor': 'end'}, axis)
            .textContent = labels[i];
        const w = vmax > 0 ? (values[i] / vmax) * (W - M.l - M.r) : 0;
        el('rect', {x: M.l, y: y + 4, width: Math.max(w, 1), height: 12,
                    fill: ownerColors[i % ownerColors.length],
                    'fill-opacity': 0.85}, svg);
        el('text', {x: M.l + Math.max(w, 1) + 5, y: y + 13}, axis)
            .textContent = fmt(values[i]);
    }
}

// Side-by-side policy comparison from the point's embedded ledger
// record: <policy>.stp / .unfairness / .socket_energy_j /
// .slo_breaches, one bar per policy run in the same study.
function drawPolicyStrip(parent, b, rules) {
    const pt = points.find(p => p.spec_hash === b.spec_hash &&
                                p.kind === 'point');
    if (!pt || !rules.length) return;
    const byName = pt.metrics || {};
    const specs = [['stp', 'STP (sum of speedups)'],
                   ['unfairness', 'Unfairness (max/min slowdown)'],
                   ['socket_energy_j', 'Socket energy (J)'],
                   ['slo_breaches', 'SLO breaches']];
    for (const [key, title] of specs) {
        const have = rules.filter(r =>
            byName[r + '.' + key] !== undefined);
        if (!have.length) continue;
        barChart(parent, title, have,
                 have.map(r => byName[r + '.' + key]));
    }
}

// LFOC class-transition lane: one horizontal band per app, coloured
// by the class each journaled decision assigned.
function drawClassLane(parent, b, lds) {
    let n = 0;
    for (const e of lds) n = Math.max(n, e.fields.num_apps || 0);
    if (!n) return;
    const ts = lds.map(e => e.t_us / 1000);
    const gap = ts.length > 1 ? ts[ts.length - 1] - ts[ts.length - 2]
                              : 1;
    const tEnd = ts[ts.length - 1] + (gap || 1);
    const f = frame(parent, {title:
        'LFOC class transitions (one lane per app)',
        xlab: 'time (ms)', ylab: 'app', h: Math.max(18 * n, 60),
        x0: ts[0], x1: tEnd, y0: 0, y1: n});
    for (let i = 0; i < lds.length; i++) {
        const x0 = f.x(ts[i]);
        const x1 = f.x(i + 1 < ts.length ? ts[i + 1] : tEnd);
        for (let a = 0; a < n; a++) {
            const c = lds[i].fields['app' + a + '.class'];
            if (c === undefined) continue;
            const g = el('g', {}, f.plot);
            el('rect', {x: x0, y: f.y(a + 1) + 1,
                        width: Math.max(x1 - x0, 1),
                        height: Math.max(f.y(a) - f.y(a + 1) - 2, 1),
                        fill: classColors[c] || '#999',
                        'fill-opacity': 0.8}, g);
            el('title', {}, g).textContent = ownerLabel(b, a) + ': ' +
                (classNames[c] || String(c));
        }
    }
    legend(parent, classNames.map((nm, i) => [nm, classColors[i]]));
}

// Fractional-way bouncing: each sensitive app's granted integer ways
// per decision (solid steps) against its fractional target (dashed).
function drawBounce(parent, b, lds) {
    let n = 0;
    for (const e of lds) n = Math.max(n, e.fields.num_apps || 0);
    const ts = lds.map(e => e.t_us / 1000);
    const sens = [];
    for (let a = 0; a < n; a++) {
        if (lds.some(e => e.fields['app' + a + '.class'] === 2))
            sens.push(a);
    }
    if (!sens.length || ts.length < 2) return;
    let ymax = 1;
    for (const a of sens) {
        for (const e of lds) {
            ymax = Math.max(ymax, e.fields['app' + a + '.ways'] || 0,
                            e.fields['app' + a + '.target'] || 0);
        }
    }
    const f = frame(parent, {title:
        'LFOC way bouncing: granted ways (solid) vs fractional ' +
        'target (dashed)',
        xlab: 'time (ms)', ylab: 'ways', h: 160,
        x0: ts[0], x1: ts[ts.length - 1], y0: 0, y1: ymax + 1});
    for (const a of sens) {
        linePath(f, ts,
                 lds.map(e => e.fields['app' + a + '.ways'] || 0),
                 ownerColors[a % ownerColors.length]);
        linePath(f, ts,
                 lds.map(e => e.fields['app' + a + '.target'] || 0),
                 ownerColors[a % ownerColors.length], '5 3');
    }
    legend(parent, sens.map(a =>
        [ownerLabel(b, a), ownerColors[a % ownerColors.length]]));
}

// Label of one `run` record: a policy run (N-app, or the pair's with
// its FG ways and whether the BG ran continuously), a biased-search
// split, or a solo baseline of one member.
function runLabel(b, r) {
    const fl = r.fields || {};
    if (r.rule === 'solo') {
        return 'solo ' + ownerLabel(b, fl.app || 0) +
            (fl.threads ? ' on ' + fl.threads + ' threads' : '');
    }
    let s = 'policy ' + r.rule;
    if (fl.search)
        s += ' search, ' + fl.fg_ways + ' FG way' +
             (fl.fg_ways === 1 ? '' : 's');
    if (fl.bg_continuous !== undefined)
        s += fl.bg_continuous ? ', continuous BG' : ', run once';
    return s;
}

// Every point draws one view: its samples split into System runs,
// each labeled by the `run` record a study journals as the run starts
// (in run order). The ring keeps a point's newest samples, so
// segments align with runs from the newest back; older runs lost
// their samples to it, and the oldest sampled run lost its first ones
// when its first sample comes later than every other run's (each run
// samples from the same quantum on). A run's decisions follow its
// `run` record in the journal. The SLO monitor evaluates a continuous
// run after it ends (possibly after a solo baseline ran), so `slo`
// records go to the policy of the last non-solo run record.
function drawPoint(charts, dec, b) {
    const runs = [], runJournal = [[]], slo = {};
    let policy = '';
    for (const e of (b.journal || [])) {
        if (e.kind === 'run') {
            runs.push(e);
            runJournal.push([]);
            if (e.rule !== 'solo') policy = e.rule;
        } else if (e.kind === 'slo') {
            (slo[policy] = slo[policy] || []).push(e);
        } else {
            runJournal[runJournal.length - 1].push(e);
        }
    }
    const nds = nappDecisions(b);
    const rules = [];
    for (const r of runs) {
        if (r.rule !== 'solo' && rules.indexOf(r.rule) < 0)
            rules.push(r.rule);
    }
    for (const e of nds) {
        if (rules.indexOf(e.rule) < 0) rules.push(e.rule);
    }
    drawPolicyStrip(charts, b, rules);

    const segs = segmentSamples(b.samples);
    const n = Math.max(runs.length, segs.length);
    const views = [];
    for (let i = 0; i < n; i++) {
        const ri = i - (n - runs.length), si = i - (n - segs.length);
        const r = ri >= 0 ? runs[ri] : null;
        views.push({
            run: r,
            title: 'run ' + (i + 1) + (r ? ': ' + runLabel(b, r) : ''),
            samples: si >= 0 ? segs[si] : null,
            // A point with one unmarked run owns its whole journal.
            journal: r ? runJournal[ri + 1]
                       : (n === 1 ? runJournal[0] : [])});
    }
    const lost = views.filter(v => !v.samples);
    if (!segs.length) {
        html('p', 'empty', charts,
             'This point recorded journal entries but no samples ' +
             '(sampling period 0 or run shorter than one period).');
    } else if (lost.length) {
        html('p', 'empty', charts, lost.length + ' of ' + n +
             ' runs lost their samples to the sample ring, which ' +
             'keeps the newest: ' + lost.map(v => v.title).join('; ') +
             '.');
    }
    const firstQ = Math.min(...segs.map(seg => seg[0].q));
    const cut = views.find(v => v.samples && v.samples[0].q > firstQ);
    if (cut) {
        html('p', 'empty', charts, 'The sample ring also dropped the ' +
             'first samples of ' + cut.title + '.');
    }
    for (const v of views) {
        if (!v.samples || (v.run && v.run.rule === 'solo')) continue;
        drawOccupancy(charts, {label: b.label, samples: v.samples,
                               journal: v.journal},
                      'LLC way occupancy by owner — ' + v.title);
    }
    const lds = nds.filter(e => e.rule === 'lfoc');
    if (lds.length) {
        drawClassLane(charts, b, lds);
        drawBounce(charts, b, lds);
    }
    const sampled = views.filter(v => v.samples);
    if (sampled.length) {
        // Per-owner detail (stalls / power / DRAM) for one selected
        // System run of the point.
        const detail = document.createElement('div');
        charts.appendChild(detail);
        const sel = document.createElement('select');
        sampled.forEach((v, i) => {
            const opt = document.createElement('option');
            opt.value = i;
            opt.textContent = 'detail: ' + v.title;
            sel.appendChild(opt);
        });
        detail.appendChild(sel);
        const body = document.createElement('div');
        detail.appendChild(body);
        const drawDetail = i => {
            body.textContent = '';
            const sub = {label: b.label, samples: sampled[i].samples,
                         journal: []};
            drawStalls(body, sub);
            drawEnergy(body, sub);
            drawDram(body, sub);
        };
        sel.addEventListener('change',
                             () => drawDetail(Number(sel.value)));
        drawDetail(0);
    }
    for (const rule of Object.keys(slo)) {
        drawSlo(charts, {journal: slo[rule]}, rule
            ? 'SLO burn rate — policy ' + rule +
              ' (short/long windows; shaded = in breach)'
            : undefined);
    }
    if (nds.length) nappDecisionsTable(dec, b);
    if (decisions(b).length || !nds.length) decisionsTable(dec, b);
}

// ---- tables -----------------------------------------------------------

function nappDecisionsTable(parent, batch) {
    const ds = nappDecisions(batch);
    const classCh = ['L', 'S', '*'];
    const tbl = html('table', '', parent);
    const hdr = html('tr', '', tbl);
    for (const h of ['t (ms)', 'policy', 'seq', 'apps', 'ways',
                     'per-app ways (L light / S streaming / * target)',
                     'applied'])
        html('th', h === 'policy' || h.indexOf('per-app') === 0
                 ? 's' : '', hdr, h);
    for (const d of ds) {
        const fl = d.fields || {};
        const n = fl.num_apps || 0;
        const cells = [];
        for (let a = 0; a < n; a++) {
            let cell = fmt(fl['app' + a + '.ways'], 0);
            const c = fl['app' + a + '.class'];
            if (c !== undefined && c !== 2) cell += classCh[c] || '';
            const t = fl['app' + a + '.target'];
            if (d.rule === 'lfoc' && c === 2 && t !== undefined)
                cell += '*' + fmt(t, 2);
            cells.push(cell);
        }
        const tr = html('tr', '', tbl);
        tr.title = Object.keys(fl).map(k => k + '=' + fmt(fl[k], 6))
                         .join('  ');
        html('td', '', tr, fmt(d.t_us / 1000));
        html('td', 's', tr, d.rule);
        html('td', '', tr, fmt(fl.seq, 0));
        html('td', '', tr, fmt(n, 0));
        html('td', '', tr, fmt(fl.total_ways, 0));
        html('td', 's', tr, cells.join(' '));
        html('td', '', tr, fl.applied ? 'yes' : 'no');
    }
}

function decisionsTable(parent, batch) {
    const ds = decisions(batch);
    if (!ds.length) {
        html('p', 'empty', parent,
             'No partitioner decisions recorded for this point.');
        return;
    }
    const tbl = html('table', '', parent);
    const hdr = html('tr', '', tbl);
    for (const h of ['t (ms)', 'rule', 'fg ways', 'target', 'mask',
                     'raw MPKI', 'smoothed', 'last', 'delta', 'phase',
                     'probing', 'applied'])
        html('th', h === 'rule' || h === 'mask' ? 's' : '', hdr, h);
    const phases = ['stable', 'transition', 'new-phase'];
    for (const d of ds) {
        const fl = d.fields || {};
        const tr = html('tr', '', tbl);
        tr.title = Object.keys(fl).map(k => k + '=' + fmt(fl[k], 6))
                         .join('  ');
        html('td', '', tr, fmt(d.t_us / 1000));
        html('td', 's', tr, d.rule);
        html('td', '', tr, fmt(fl.fg_ways, 0));
        html('td', '', tr, fmt(fl.target_fg_ways, 0));
        html('td', 's', tr,
             fl.chosen_fg_mask === undefined ? ''
                 : maskHex(fl.chosen_fg_mask));
        html('td', '', tr, fmt(fl.raw_mpki));
        html('td', '', tr, fmt(fl.smoothed_mpki));
        html('td', '', tr, fl.have_last ? fmt(fl.last_mpki) : '-');
        html('td', '', tr, fmt(fl.delta));
        html('td', '', tr, phases[fl.phase] || String(fl.phase));
        html('td', '', tr, fl.probing ? 'yes' : 'no');
        html('td', '', tr, fl.applied ? 'yes' : 'no');
    }
}

function pointsTable(parent) {
    if (!points.length) {
        html('p', 'empty', parent, 'No ledger points embedded.');
        return;
    }
    const cols = [];
    for (const p of points)
        for (const k in (p.metrics || {}))
            if (cols.indexOf(k) < 0) cols.push(k);
    const shown = cols.slice(0, 8);
    const tbl = html('table', '', parent);
    const hdr = html('tr', '', tbl);
    for (const h of ['spec', 'cached'].concat(shown, ['attr file']))
        html('th', 's', hdr, h);
    for (const p of points) {
        const tr = html('tr', '', tbl);
        html('td', 's', tr, (p.spec_hash || '').slice(0, 10));
        html('td', '', tr, p.cached ? 'yes' : 'no');
        const byName = p.metrics || {};
        for (const c of shown)
            html('td', '', tr,
                 byName[c] === undefined ? '-' : fmt(byName[c]));
        html('td', 's', tr, p.attr_file || '-');
    }
}

// ---- page assembly ----------------------------------------------------

function drawBatch(idx) {
    const charts = document.getElementById('charts');
    const dec = document.getElementById('decisions');
    charts.textContent = '';
    dec.textContent = '';
    if (!batches.length) {
        html('p', 'empty', charts,
             'No attribution samples recorded. Run with ' +
             '--obs-dir=D --obs-sample-period=N to collect ' +
             'per-owner timelines.');
        html('p', 'empty', dec, 'No decision journal recorded.');
        return;
    }
    drawPoint(charts, dec, batches[idx]);
}

document.getElementById('page-title').textContent =
    data.title || 'capart dashboard';
document.title = data.title || 'capart dashboard';
let sampleTotal = 0, decisionTotal = 0, nappTotal = 0;
for (const b of batches) {
    sampleTotal += b.samples.length;
    decisionTotal += decisions(b).length;
    nappTotal += nappDecisions(b).length;
}
document.getElementById('page-meta').textContent =
    batches.length + ' point(s), ' + sampleTotal +
    ' attribution sample(s), ' + decisionTotal +
    ' partitioner decision(s), ' + nappTotal +
    ' N-app policy decision(s), ' + points.length +
    ' ledger point record(s).';

if (batches.length > 1) {
    const bar = document.getElementById('batch-bar');
    const sel = document.createElement('select');
    batches.forEach((b, i) => {
        const opt = document.createElement('option');
        opt.value = i;
        opt.textContent = (b.label || 'point ' + i) + ' — ' +
            b.samples.length + ' samples (' + b.spec_hash + ')';
        sel.appendChild(opt);
    });
    sel.addEventListener('change', () => drawBatch(Number(sel.value)));
    bar.appendChild(sel);
}
drawBatch(0);
pointsTable(document.getElementById('points'));
})();
)JS";

std::string
replaceFirst(std::string haystack, const std::string &needle,
             const std::string &replacement)
{
    const std::size_t pos = haystack.find(needle);
    if (pos != std::string::npos)
        haystack.replace(pos, needle.size(), replacement);
    return haystack;
}

/** Minimal HTML text escaping for the <title> element. */
std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '&': out += "&amp;"; break;
          default: out += c;
        }
    }
    return out;
}

} // namespace

std::size_t
sampleTotal(const DashboardData &data)
{
    std::size_t n = 0;
    for (const obs::AttributionBatch &b : data.batches)
        n += b.samples.size();
    return n;
}

std::string
dashboardJson(const DashboardData &data)
{
    // Batches and ledger records reuse their native serializers, so
    // the embedded blob's schemas stay identical to the side files'.
    std::ostringstream os;
    os << "{\"title\":\"" << jsonEscape(data.title) << '"';
    os << ",\"batches\":[";
    for (std::size_t i = 0; i < data.batches.size(); ++i) {
        if (i)
            os << ',';
        os << batchJson(data.batches[i]);
    }
    os << "],\"points\":[";
    for (std::size_t i = 0; i < data.points.size(); ++i) {
        if (i)
            os << ',';
        os << obs::RunLedger::encode(data.points[i]);
    }
    os << "]}";
    return scriptSafe(os.str());
}

void
renderDashboardHtml(std::ostream &os, const DashboardData &data)
{
    // data-samples on <body> counts the embedded attribution samples,
    // so a run that recorded none (no --obs-dir, or no sample period)
    // reads data-samples="0" without running the page's script.
    std::string head =
        replaceFirst(kPageHead, "__TITLE__", htmlEscape(data.title));
    head = replaceFirst(head, "<body>",
                        "<body data-samples=\"" +
                            std::to_string(sampleTotal(data)) + "\">");
    os << head << dashboardJson(data) << kPageMiddle << kPageScript
       << kPageTail;
}

bool
loadDashboardData(const std::vector<std::string> &ledgers,
                  const std::string &obs_dir, const std::string &run_id,
                  const std::string &bench, DashboardData *out)
{
    std::vector<obs::RunRecord> records;
    for (const std::string &path : ledgers) {
        for (obs::RunRecord &rec : obs::RunLedger::load(path).records) {
            if (bench.empty() || rec.bench == bench)
                records.push_back(std::move(rec));
        }
    }
    const std::vector<report::RunGroup> groups = report::groupRuns(records);
    const report::RunGroup *group = nullptr;
    for (const report::RunGroup &g : groups) {
        if (run_id.empty() || g.run == run_id)
            group = &g; // groups sort by start time: the last is newest
    }
    if (!run_id.empty() && !group) {
        std::fprintf(stderr, "dashboard: no run with id %s\n",
                     run_id.c_str());
        return false;
    }
    out->title = group ? "capart " + group->bench + " — " + group->run
                       : "capart dashboard";
    std::vector<std::string> files;
    if (group) {
        out->points = group->points;
        for (const obs::RunRecord &p : group->points) {
            if (!p.attrFile.empty())
                files.push_back(p.attrFile);
        }
    }
    // Then every side file in the obs directory's attr/ that no point
    // links, in a stable order.
    std::error_code ec;
    std::vector<std::string> found;
    if (!obs_dir.empty()) {
        for (fs::directory_iterator it(fs::path(obs_dir) / "attr", ec), end;
             !ec && it != end; it.increment(ec)) {
            if (it->path().extension() == ".json")
                found.push_back(it->path().string());
        }
    }
    std::sort(found.begin(), found.end());
    const std::size_t linked = files.size();
    for (const std::string &f : found) {
        if (std::none_of(files.begin(), files.begin() + linked,
                         [&](const std::string &l) {
                             return fs::equivalent(l, f, ec);
                         }))
            files.push_back(f);
    }
    for (const std::string &f : files) {
        std::string text;
        obs::AttributionBatch batch;
        if (!readFile(f, &text) || !obs::parseAttributionJson(text, &batch)) {
            std::fprintf(stderr, "dashboard: skipping %s (not a readable "
                                 "attribution file)\n", f.c_str());
            continue;
        }
        if (batch.attrFile.empty())
            batch.attrFile = f;
        out->batches.push_back(std::move(batch));
    }
    return true;
}

} // namespace capart::dashboard
