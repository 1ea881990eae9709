#include "rctl/resctrl.hh"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace capart
{

const char *
rctlStatusName(RctlStatus s)
{
    switch (s) {
      case RctlStatus::Ok:
        return "ok";
      case RctlStatus::Exists:
        return "exists";
      case RctlStatus::NotFound:
        return "not-found";
      case RctlStatus::Busy:
        return "busy";
      case RctlStatus::InvalidMask:
        return "invalid-mask";
      case RctlStatus::NoSpace:
        return "no-space";
      case RctlStatus::ParseError:
        return "parse-error";
      case RctlStatus::IoError:
        return "io-error";
    }
    capart_panic("unknown rctl status");
}

ResctrlFs::ResctrlFs(System &sys, CatConstraints cat)
    : sys_(&sys), cat_(cat)
{
    // The default group exists from boot and owns every app.
    Group def;
    def.mask = WayMask::all(sys.llcWays());
    for (AppId a = 0; a < sys.numApps(); ++a)
        def.members.push_back(a);
    groups_.emplace(kDefaultGroup, std::move(def));
}

ResctrlFs::Group *
ResctrlFs::find(const std::string &name)
{
    const auto it = groups_.find(name);
    return it == groups_.end() ? nullptr : &it->second;
}

const ResctrlFs::Group *
ResctrlFs::find(const std::string &name) const
{
    const auto it = groups_.find(name);
    return it == groups_.end() ? nullptr : &it->second;
}

RctlStatus
ResctrlFs::createGroup(const std::string &name)
{
    if (name.empty() || find(name))
        return RctlStatus::Exists;
    if (groups_.size() >= cat_.maxGroups + 1) // +1: default group
        return RctlStatus::NoSpace;
    Group g;
    g.mask = WayMask::all(sys_->llcWays());
    groups_.emplace(name, std::move(g));
    return RctlStatus::Ok;
}

RctlStatus
ResctrlFs::removeGroup(const std::string &name)
{
    if (name.empty())
        return RctlStatus::Busy; // the default group is permanent
    Group *g = find(name);
    if (!g)
        return RctlStatus::NotFound;
    if (!g->members.empty())
        return RctlStatus::Busy;
    groups_.erase(name);
    return RctlStatus::Ok;
}

bool
ResctrlFs::maskAllowed(WayMask mask, unsigned total_ways,
                       const CatConstraints &cat)
{
    if (mask.empty())
        return false;
    if ((mask & WayMask::all(total_ways)) != mask)
        return false;
    if (mask.count() < cat.minWays)
        return false;
    if (cat.requireContiguous) {
        // A contiguous run of ones: x / lowest-run-removed == 0.
        const std::uint32_t bits = mask.bits();
        const std::uint32_t shifted = bits >> std::countr_zero(bits);
        if ((shifted & (shifted + 1)) != 0)
            return false;
    }
    return true;
}

std::optional<WayMask>
ResctrlFs::parseSchemata(const std::string &text, unsigned total_ways)
{
    WayMask mask;
    if (parseSchemataStatus(text, total_ways, mask) != RctlStatus::Ok)
        return std::nullopt;
    return mask;
}

RctlStatus
ResctrlFs::parseSchemataStatus(const std::string &text, unsigned total_ways,
                               WayMask &out)
{
    // Accept "L3:0=<hex>" with optional surrounding whitespace.
    std::string s;
    for (const char c : text) {
        if (!std::isspace(static_cast<unsigned char>(c)))
            s += c;
    }
    const std::string prefix = "L3:0=";
    if (s.rfind(prefix, 0) != 0)
        return RctlStatus::ParseError;
    const std::string hex = s.substr(prefix.size());
    if (hex.empty() || hex.size() > 8)
        return RctlStatus::ParseError;
    std::uint32_t bits = 0;
    for (const char c : hex) {
        bits <<= 4;
        if (c >= '0' && c <= '9')
            bits |= static_cast<std::uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            bits |= static_cast<std::uint32_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            bits |= static_cast<std::uint32_t>(c - 'A' + 10);
        else
            return RctlStatus::ParseError;
    }
    const WayMask mask{bits};
    // An empty mask or bits beyond the cache's ways are syntactically
    // fine but name an allocation the hardware cannot hold.
    if (mask.empty() || (mask & WayMask::all(total_ways)) != mask)
        return RctlStatus::InvalidMask;
    out = mask;
    return RctlStatus::Ok;
}

std::string
ResctrlFs::formatSchemata(WayMask mask)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "L3:0=%x", mask.bits());
    return buf;
}

RctlStatus
ResctrlFs::writeSchemata(const std::string &name,
                         const std::string &schemata)
{
    if (obs::enabled())
        obs::metrics().counter("rctl.schemata_writes").inc();
    Group *g = find(name);
    if (!g)
        return RctlStatus::NotFound;
    WayMask mask;
    const RctlStatus parsed =
        parseSchemataStatus(schemata, sys_->llcWays(), mask);
    if (parsed != RctlStatus::Ok)
        return parsed;
    if (!maskAllowed(mask, sys_->llcWays(), cat_))
        return RctlStatus::InvalidMask;

    // Idempotent fast path: rewriting the installed mask touches no
    // hardware state and cannot fail — what makes retries safe.
    if (g->mask == mask)
        return RctlStatus::Ok;

    if (hook_) {
        const RctlStatus forced = hook_->onSchemataWrite(name);
        if (forced != RctlStatus::Ok) {
            if (obs::enabled())
                obs::metrics().counter("rctl.schemata_failures").inc();
            return forced;
        }
    }

    // Transactional commit: remask every member or roll back the ones
    // already moved, leaving the group's schemata untouched.
    const WayMask old = g->mask;
    std::vector<AppId> moved;
    for (const AppId app : g->members) {
        if (hook_ && !hook_->onApplyMask(name, app)) {
            for (const AppId done : moved)
                sys_->setWayMask(done, old);
            if (obs::enabled()) {
                obs::metrics().counter("rctl.schemata_failures").inc();
                obs::metrics().counter("rctl.rollbacks").inc();
            }
            return RctlStatus::IoError;
        }
        sys_->setWayMask(app, mask);
        moved.push_back(app);
    }
    g->mask = mask;
    return RctlStatus::Ok;
}

RctlStatus
ResctrlFs::writeSchemataWithRetry(const std::string &name,
                                  const std::string &schemata,
                                  unsigned max_attempts)
{
    capart_assert(max_attempts >= 1);
    RctlStatus s = RctlStatus::IoError;
    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        s = writeSchemata(name, schemata);
        if (s != RctlStatus::IoError)
            return s; // success or a permanent (non-retryable) error
    }
    return s;
}

std::optional<std::string>
ResctrlFs::readSchemata(const std::string &name) const
{
    const Group *g = find(name);
    if (!g)
        return std::nullopt;
    return formatSchemata(g->mask);
}

RctlStatus
ResctrlFs::assignApp(const std::string &name, AppId app)
{
    Group *g = find(name);
    if (!g || app >= sys_->numApps())
        return RctlStatus::NotFound;
    for (auto &[gname, group] : groups_) {
        group.members.erase(
            std::remove(group.members.begin(), group.members.end(), app),
            group.members.end());
    }
    g->members.push_back(app);
    sys_->setWayMask(app, g->mask);
    return RctlStatus::Ok;
}

std::string
ResctrlFs::groupOf(AppId app) const
{
    for (const auto &[name, group] : groups_) {
        if (std::find(group.members.begin(), group.members.end(), app) !=
            group.members.end()) {
            return name;
        }
    }
    return kDefaultGroup;
}

std::vector<std::string>
ResctrlFs::listGroups() const
{
    std::vector<std::string> names;
    names.push_back(kDefaultGroup);
    for (const auto &[name, group] : groups_) {
        if (!name.empty())
            names.push_back(name);
    }
    return names;
}

std::optional<ResctrlFs::GroupMonitor>
ResctrlFs::monitor(const std::string &name) const
{
    const Group *g = find(name);
    if (!g)
        return std::nullopt;
    GroupMonitor m;
    for (const AppId app : g->members) {
        const PartitionStats &s =
            sys_->hierarchy().llc().slotStats(app);
        m.llcAccesses += s.accesses;
        m.llcHits += s.hits;
    }
    return m;
}

} // namespace capart
