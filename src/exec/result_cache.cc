#include "exec/result_cache.hh"

#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/util.hh"
#include "obs/metrics.hh"

namespace capart::exec
{
namespace
{

// v2 appends a per-line FNV-1a checksum (`c=<16 hex>`): a torn,
// bit-flipped, or hand-mangled line fails verification and is
// recomputed instead of poisoning a sweep. v3 extends each record with
// the six NAppPolicyOutcome blocks. v1/v2 files lack fields and are
// ignored wholesale (recompute beats wrong reuse).
constexpr const char *kHeader = "# capart-sweep-cache v3";

/** One corrupt line / file seen: log-free counting (the caller warns). */
void
countCorrupt()
{
    if (obs::enabled())
        obs::metrics().counter("cache.corrupt").inc();
}

/** Every stored double must be finite: a NaN/Inf entry is corruption
 *  (no simulation result is legitimately non-finite) and returning it
 *  would poison averages silently. */
bool
allFinite(const SweepResult &r)
{
    const double flat[] = {r.time,  r.socketEnergy, r.wallEnergy, r.mpki,
                           r.apki, r.ipc,          r.bgThroughput};
    for (const double v : flat) {
        if (!std::isfinite(v))
            return false;
    }
    for (const PolicyOutcome &p : r.policy) {
        const double pv[] = {p.fgSlowdown, p.bgThroughput,
                             p.energyVsSequential,
                             p.wallEnergyVsSequential, p.weightedSpeedup};
        for (const double v : pv) {
            if (!std::isfinite(v))
                return false;
        }
    }
    for (const NAppPolicyOutcome &p : r.napp) {
        const double pv[] = {p.stp,        p.throughputIps,
                             p.unfairness, p.fgSlowdown,
                             p.socketEnergyJ, p.wallEnergyJ};
        for (const double v : pv) {
            if (!std::isfinite(v))
                return false;
        }
    }
    return true;
}

} // namespace

std::string
ResultCache::encode(const SweepResult &res)
{
    std::string s;
    s += hexDouble(res.time);
    s += ' ';
    s += hexDouble(res.socketEnergy);
    s += ' ';
    s += hexDouble(res.wallEnergy);
    s += ' ';
    s += hexDouble(res.mpki);
    s += ' ';
    s += hexDouble(res.apki);
    s += ' ';
    s += hexDouble(res.ipc);
    s += ' ';
    s += hexDouble(res.bgThroughput);
    s += ' ';
    s += res.timedOut ? '1' : '0';
    for (const PolicyOutcome &p : res.policy) {
        s += ' ';
        s += p.present ? '1' : '0';
        s += ' ';
        s += hexDouble(p.fgSlowdown);
        s += ' ';
        s += hexDouble(p.bgThroughput);
        s += ' ';
        s += hexDouble(p.energyVsSequential);
        s += ' ';
        s += hexDouble(p.wallEnergyVsSequential);
        s += ' ';
        s += hexDouble(p.weightedSpeedup);
        s += ' ';
        s += std::to_string(p.fgWays);
    }
    for (const NAppPolicyOutcome &p : res.napp) {
        s += ' ';
        s += p.present ? '1' : '0';
        s += ' ';
        s += hexDouble(p.stp);
        s += ' ';
        s += hexDouble(p.throughputIps);
        s += ' ';
        s += hexDouble(p.unfairness);
        s += ' ';
        s += hexDouble(p.fgSlowdown);
        s += ' ';
        s += hexDouble(p.socketEnergyJ);
        s += ' ';
        s += hexDouble(p.wallEnergyJ);
        s += ' ';
        s += std::to_string(p.sloBreaches);
        s += ' ';
        s += std::to_string(p.remasks);
    }
    return s;
}

bool
ResultCache::decode(const std::string &body, SweepResult *out)
{
    // Tokenize, then parse doubles with strtod: stream extraction of
    // hexfloat is implementation-defined, strtod is guaranteed.
    std::istringstream in(body);
    std::string tok;
    const auto next_double = [&](double *v) {
        if (!(in >> tok))
            return false;
        char *end = nullptr;
        *v = std::strtod(tok.c_str(), &end);
        return end != tok.c_str() && *end == '\0';
    };
    const auto next_uint = [&](unsigned *v) {
        unsigned long parsed = 0;
        if (!(in >> tok))
            return false;
        char *end = nullptr;
        parsed = std::strtoul(tok.c_str(), &end, 10);
        if (end == tok.c_str() || *end != '\0')
            return false;
        *v = static_cast<unsigned>(parsed);
        return true;
    };

    SweepResult r;
    unsigned timed_out = 0;
    if (!next_double(&r.time) || !next_double(&r.socketEnergy) ||
        !next_double(&r.wallEnergy) || !next_double(&r.mpki) ||
        !next_double(&r.apki) || !next_double(&r.ipc) ||
        !next_double(&r.bgThroughput) || !next_uint(&timed_out))
        return false;
    r.timedOut = timed_out != 0;
    for (PolicyOutcome &p : r.policy) {
        unsigned present = 0;
        if (!next_uint(&present) || !next_double(&p.fgSlowdown) ||
            !next_double(&p.bgThroughput) ||
            !next_double(&p.energyVsSequential) ||
            !next_double(&p.wallEnergyVsSequential) ||
            !next_double(&p.weightedSpeedup) || !next_uint(&p.fgWays))
            return false;
        p.present = present != 0;
    }
    for (NAppPolicyOutcome &p : r.napp) {
        unsigned present = 0;
        if (!next_uint(&present) || !next_double(&p.stp) ||
            !next_double(&p.throughputIps) ||
            !next_double(&p.unfairness) || !next_double(&p.fgSlowdown) ||
            !next_double(&p.socketEnergyJ) ||
            !next_double(&p.wallEnergyJ) ||
            !next_uint(&p.sloBreaches) || !next_uint(&p.remasks))
            return false;
        p.present = present != 0;
    }
    if (in >> tok)
        return false; // trailing junk after a full record
    if (!allFinite(r))
        return false;
    r.fromCache = true;
    *out = r;
    return true;
}

std::string
ResultCache::checksumLine(const std::string &keyed_body)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "c=%016" PRIx64, fnv1a64(keyed_body));
    return keyed_body + ' ' + buf;
}

bool
ResultCache::verifyLine(const std::string &line, std::string *keyed_body)
{
    const std::size_t sep = line.rfind(" c=");
    if (sep == std::string::npos || line.size() - sep != 3 + 16)
        return false;
    const std::string body = line.substr(0, sep);
    std::uint64_t stored = 0;
    if (std::sscanf(line.c_str() + sep + 3, "%16" SCNx64, &stored) != 1)
        return false;
    if (stored != fnv1a64(body))
        return false;
    *keyed_body = body;
    return true;
}

ResultCache::ResultCache(std::string path) : path_(std::move(path))
{
    std::ifstream in(path_);
    if (!in)
        return;
    std::string line;
    if (!std::getline(in, line) || line != kHeader) {
        capart_warn("ignoring incompatible sweep cache " << path_);
        countCorrupt();
        return;
    }
    fileCompatible_ = true;
    std::uint64_t bad = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        // Verify the whole line's checksum before believing one byte
        // of it; then split off the key and decode the body. Any
        // failure skips the line — the point simply recomputes.
        std::string keyed_body;
        if (!verifyLine(line, &keyed_body)) {
            ++bad;
            countCorrupt();
            continue;
        }
        const std::size_t sep = keyed_body.find(' ');
        if (sep == std::string::npos) {
            ++bad;
            countCorrupt();
            continue;
        }
        std::uint64_t key = 0;
        if (std::sscanf(keyed_body.c_str(), "%" SCNx64, &key) != 1) {
            ++bad;
            countCorrupt();
            continue;
        }
        SweepResult res;
        if (!decode(keyed_body.substr(sep + 1), &res)) {
            ++bad;
            countCorrupt();
            continue;
        }
        entries_[key] = res; // duplicate keys: last write wins
    }
    if (bad > 0) {
        capart_warn("sweep cache " << path_ << ": skipped " << bad
                                   << " corrupt line(s); those points "
                                      "will recompute");
    }
    // A torn last line has no newline; the first store ends it, or the
    // record appended after it would fail its checksum too.
    in.clear();
    char last = '\n';
    tornTail_ = in.seekg(-1, std::ios::end) && in.get(last) && last != '\n';
}

void
ResultCache::initializeFile(const std::string &path)
{
    {
        std::ifstream in(path);
        std::string line;
        if (in && std::getline(in, line) && line == kHeader)
            return;
    }
    std::ofstream out(path, std::ios::trunc);
    if (out)
        out << kHeader << '\n';
    else
        capart_warn("cannot initialize sweep cache " << path);
}

bool
ResultCache::lookup(std::uint64_t key, SweepResult *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    *out = it->second;
    out->fromCache = true;
    return true;
}

void
ResultCache::store(std::uint64_t key, const SweepResult &res)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[key] = res;

    const bool append = fileCompatible_;
    std::ofstream out(path_, append ? std::ios::app : std::ios::trunc);
    if (!out) {
        capart_warn("cannot write sweep cache " << path_);
        return;
    }
    char keybuf[20];
    if (!append) {
        out << kHeader << '\n';
        fileCompatible_ = true;
        // Rewrite everything we know (covers the foreign-file case).
        for (const auto &[k, v] : entries_) {
            std::snprintf(keybuf, sizeof(keybuf), "%016" PRIx64, k);
            out << checksumLine(std::string(keybuf) + ' ' + encode(v))
                << '\n';
        }
        out.flush();
        return;
    }
    if (tornTail_) {
        out << '\n';
        tornTail_ = false;
    }
    std::snprintf(keybuf, sizeof(keybuf), "%016" PRIx64, key);
    out << checksumLine(std::string(keybuf) + ' ' + encode(res)) << '\n';
    out.flush();
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace capart::exec
