/**
 * @file
 * A Linux-resctrl-flavoured control plane for LLC partitioning.
 *
 * The paper steers its prototype's way masks through a custom BIOS;
 * production hardware exposes the same mechanism (Intel CAT) through
 * the resctrl filesystem: control groups with a `schemata` file
 * ("L3:0=ff0") and a `tasks` file. This module reproduces those
 * semantics over a simulated @ref System so policies written against
 * resctrl port directly:
 *
 *  - groups are created/removed like resctrl directories;
 *  - schemata strings parse/format exactly like `L3:<domain>=<mask>`;
 *  - Intel CAT's hardware rules are enforced (contiguous masks, a
 *    minimum of two ways, a bounded number of CLOS groups);
 *  - assigning an application applies the group's mask, and rewriting
 *    a group's schemata re-masks every member application — without
 *    flushing, per the hardware's semantics (§2.1).
 */

#ifndef CAPART_RCTL_RESCTRL_HH
#define CAPART_RCTL_RESCTRL_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mem/way_mask.hh"
#include "sim/system.hh"

namespace capart
{

/** Outcome of a resctrl operation (errno-style, simplified). */
enum class RctlStatus
{
    Ok,
    Exists,      //!< group already exists
    NotFound,    //!< no such group / app
    Busy,        //!< group still has member tasks
    InvalidMask, //!< violates CAT mask rules
    NoSpace,     //!< out of CLOS (hardware class-of-service) slots
    ParseError,  //!< malformed schemata text (EINVAL on write)
    IoError      //!< transient I/O failure; safe to retry (EIO)
};

const char *rctlStatusName(RctlStatus s);

/**
 * Interposition point on control-plane writes, used by the
 * fault-injection framework (src/fault) to model the transient resctrl
 * failures commodity deployments see (busy MSRs, racing writers).
 */
class RctlFaultHook
{
  public:
    virtual ~RctlFaultHook() = default;

    /**
     * Consulted once per schemata write that would change state;
     * returning anything but Ok fails the write before any mask moves.
     */
    virtual RctlStatus onSchemataWrite(const std::string &group) = 0;

    /**
     * Consulted per member remask while a schemata write commits;
     * false models a transient per-task failure (the write rolls back).
     */
    virtual bool onApplyMask(const std::string &group, AppId app) = 0;
};

/** Hardware-style constraints on allowed masks (Intel CAT rules). */
struct CatConstraints
{
    /** Masks must be one contiguous run of set bits. */
    bool requireContiguous = true;
    /** Minimum number of ways in any mask. */
    unsigned minWays = 1;
    /** Maximum simultaneous control groups (CLOS count). */
    unsigned maxGroups = 4;
};

/** The resctrl-like control plane. */
class ResctrlFs
{
  public:
    /**
     * @param sys  the machine under control (not owned).
     * @param cat  hardware mask constraints.
     */
    explicit ResctrlFs(System &sys, CatConstraints cat = CatConstraints{});

    /** Create a control group (mkdir). New groups start with all ways. */
    RctlStatus createGroup(const std::string &name);

    /** Remove an empty control group (rmdir). */
    RctlStatus removeGroup(const std::string &name);

    /**
     * Write a schemata line ("L3:0=ff0") into a group.
     *
     * The write is transactional: every member is remasked or none is.
     * If a member remask fails mid-commit (transient fault), members
     * already moved are rolled back to the previous mask and the call
     * returns IoError with the group's schemata unchanged. Rewriting
     * the current mask is an idempotent no-op that always succeeds.
     */
    RctlStatus writeSchemata(const std::string &name,
                             const std::string &schemata);

    /**
     * writeSchemata with bounded retry: transient IoError failures are
     * retried up to @p max_attempts total attempts. Idempotent — safe
     * to call again after a reported failure.
     */
    RctlStatus writeSchemataWithRetry(const std::string &name,
                                      const std::string &schemata,
                                      unsigned max_attempts);

    /** Current schemata line of a group. */
    std::optional<std::string> readSchemata(const std::string &name) const;

    /** Move an application into a group (echo pid > tasks). */
    RctlStatus assignApp(const std::string &name, AppId app);

    /** Group currently holding @p app ("" = default group). */
    std::string groupOf(AppId app) const;

    /** All group names, default group first. */
    std::vector<std::string> listGroups() const;

    /** Aggregate LLC monitoring data for a group (CMT-style). */
    struct GroupMonitor
    {
        std::uint64_t llcAccesses = 0;
        std::uint64_t llcHits = 0;
    };
    std::optional<GroupMonitor> monitor(const std::string &name) const;

    /** Parse "L3:0=ff0"; empty optional when malformed. */
    static std::optional<WayMask> parseSchemata(const std::string &text,
                                                unsigned total_ways);

    /**
     * Parse "L3:0=ff0" with a precise error: ParseError for malformed
     * text (missing "L3:0=" prefix, empty/overlong/non-hex digits),
     * InvalidMask for a well-formed mask the cache cannot hold (empty
     * mask or bits beyond @p total_ways). @p out is set only on Ok.
     */
    static RctlStatus parseSchemataStatus(const std::string &text,
                                          unsigned total_ways,
                                          WayMask &out);

    /** Format a mask as "L3:0=<hex>". */
    static std::string formatSchemata(WayMask mask);

    /** True if @p mask satisfies @p cat for a cache of @p total ways. */
    static bool maskAllowed(WayMask mask, unsigned total_ways,
                            const CatConstraints &cat);

    /** Name of the always-present default group. */
    static constexpr const char *kDefaultGroup = "";

    /** Install a (non-owned) fault hook on control-plane writes. */
    void setFaultHook(RctlFaultHook *hook) { hook_ = hook; }

  private:
    struct Group
    {
        WayMask mask;
        std::vector<AppId> members;
    };

    Group *find(const std::string &name);
    const Group *find(const std::string &name) const;

    System *sys_;
    CatConstraints cat_;
    std::map<std::string, Group> groups_;
    RctlFaultHook *hook_ = nullptr;
};

} // namespace capart

#endif // CAPART_RCTL_RESCTRL_HH
