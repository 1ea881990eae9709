/**
 * @file
 * Activity-based socket and wall energy accounting (§2.2, §4).
 *
 * Socket energy covers cores, private caches, and the LLC — what the
 * paper reads through RAPL. Wall energy adds DRAM and rest-of-system
 * power, which the paper measured with an external meter. Socket power
 * deliberately does *not* depend on the LLC way allocation: the hardware
 * cannot power-gate ways (§4), so partitioning only saves energy by
 * changing runtime and DRAM traffic — the effect the paper measures.
 */

#ifndef CAPART_ENERGY_ENERGY_MODEL_HH
#define CAPART_ENERGY_ENERGY_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "obs/obs.hh"

namespace capart
{

/** Power/energy coefficients of the modeled platform. */
struct EnergyConfig
{
    /** Package power with all cores idle (uncore + LLC static). */
    Watts socketIdle = 9.0;
    /** Extra power of one core executing with one hyperthread. */
    Watts coreActive = 5.0;
    /** Additional power when the second hyperthread is also active. */
    Watts htExtra = 1.2;
    /** Energy per LLC lookup (demand or prefetch). */
    Joules llcAccessEnergy = 1.0e-9;
    /** Energy per 64-byte line moved to/from DRAM (wall only). */
    Joules dramLineEnergy = 20.0e-9;
    /** DRAM background power (wall only). */
    Watts dramBackground = 2.5;
    /** Rest-of-system power at the wall (board, VRs, PSU loss, disk). */
    Watts wallRest = 28.0;
};

/**
 * Per-owner (per-application) share of the dynamic energy, maintained
 * only while obs is enabled. Charges are added to the owner's bucket
 * and the model total in the same call, so the buckets sum to the
 * totals up to floating-point accumulation order (the attribution
 * tests allow 1e-9 relative slack for exactly that reason).
 */
struct OwnerEnergy
{
    Joules busyJ = 0.0; //!< core busy-interval share of dynamicSocket
    Joules llcJ = 0.0;  //!< LLC lookup share of dynamicSocket
    Joules dramJ = 0.0; //!< line + uncached share of dramEnergy
};

/**
 * Integrates socket and wall energy from simulator activity reports.
 * The simulator reports (a) per-hyperthread busy intervals and (b)
 * discrete memory events; idle/static power is charged against total
 * elapsed simulated time when energy is read.
 *
 * Every charge call optionally names the owning application; owner
 * buckets are observability-only (gated on obs::enabled() like the
 * rest of the obs layer) and never feed back into the charged totals.
 */
class EnergyModel
{
  public:
    /** Owner value meaning "do not attribute this charge". */
    static constexpr unsigned kNoOwner = ~0u;

    explicit EnergyModel(const EnergyConfig &cfg = EnergyConfig{})
        : cfg_(cfg)
    {
    }

    /**
     * Charge a busy interval of @p dt seconds on one hyperthread.
     * @param smt_peer_active  the sibling hyperthread was busy too; the
     *        pair splits one coreActive plus one htExtra between them.
     */
    void
    addBusy(Seconds dt, bool smt_peer_active, unsigned owner = kNoOwner)
    {
        const Watts p = smt_peer_active
            ? (cfg_.coreActive + cfg_.htExtra) * 0.5
            : cfg_.coreActive;
        dynamicSocket_ += p * dt;
        if (obs::enabled() && owner != kNoOwner)
            ownerBucket(owner).busyJ += p * dt;
    }

    /** Charge @p n LLC lookups. */
    void
    addLlcAccesses(std::uint64_t n, unsigned owner = kNoOwner)
    {
        const Joules j = cfg_.llcAccessEnergy * static_cast<double>(n);
        dynamicSocket_ += j;
        if (obs::enabled() && owner != kNoOwner)
            ownerBucket(owner).llcJ += j;
    }

    /** Charge @p lines cache lines moved over the DRAM interface. */
    void
    addDramLines(std::uint64_t lines, unsigned owner = kNoOwner)
    {
        const Joules j = cfg_.dramLineEnergy * static_cast<double>(lines);
        dramEnergy_ += j;
        if (obs::enabled() && owner != kNoOwner)
            ownerBucket(owner).dramJ += j;
    }

    /** Charge @p bytes of uncached streaming DRAM traffic. */
    void
    addDramBytes(std::uint64_t bytes, unsigned owner = kNoOwner)
    {
        const Joules j = cfg_.dramLineEnergy *
                         (static_cast<double>(bytes) / kLineBytes);
        dramEnergy_ += j;
        if (obs::enabled() && owner != kNoOwner)
            ownerBucket(owner).dramJ += j;
    }

    /** Owners with at least one attributed charge. */
    unsigned
    ownerCount() const
    {
        return static_cast<unsigned>(owners_.size());
    }

    /** Attributed buckets of @p owner (zeros when never charged). */
    OwnerEnergy
    ownerEnergy(unsigned owner) const
    {
        return owner < owners_.size() ? owners_[owner] : OwnerEnergy{};
    }

    /** Dynamic (non-idle) socket joules accumulated so far. */
    Joules dynamicSocketEnergy() const { return dynamicSocket_; }

    /** DRAM transfer joules accumulated so far (wall only). */
    Joules dramTransferEnergy() const { return dramEnergy_; }

    /** Socket (RAPL-visible) energy after @p elapsed simulated seconds. */
    Joules
    socketEnergy(Seconds elapsed) const
    {
        return cfg_.socketIdle * elapsed + dynamicSocket_;
    }

    /** Wall energy after @p elapsed simulated seconds. */
    Joules
    wallEnergy(Seconds elapsed) const
    {
        return socketEnergy(elapsed) + dramEnergy_ +
               (cfg_.dramBackground + cfg_.wallRest) * elapsed;
    }

    const EnergyConfig &config() const { return cfg_; }

  private:
    OwnerEnergy &
    ownerBucket(unsigned owner)
    {
        if (owner >= owners_.size())
            owners_.resize(owner + 1);
        return owners_[owner];
    }

    EnergyConfig cfg_;
    Joules dynamicSocket_ = 0.0;
    Joules dramEnergy_ = 0.0;
    std::vector<OwnerEnergy> owners_;
};

} // namespace capart

#endif // CAPART_ENERGY_ENERGY_MODEL_HH
