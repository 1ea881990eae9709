/**
 * @file
 * Per-owner attribution time series and structured journal.
 *
 * The metrics registry says *that* resources were consumed and the
 * tracer says where the host spent its time; this sampler records
 * *who* consumed each resource over time, and its journal is the one
 * record of *when*, in simulated time, the controllers acted. Every N executed quanta (the
 * `--obs-sample-period` knob; 0 = off) the simulator snapshots one
 * @ref AttributionSample: per-owner LLC occupancy, the per-owner stall
 * breakdown, per-owner/per-channel DRAM bytes, and per-owner energy.
 * Control-plane components append @ref JournalEntry records (one per
 * partitioner decision, SLO evaluation or System run) to the same
 * per-thread scope, so a point's samples and its decisions drain
 * together.
 *
 * Gating follows the tracer exactly: obs::enabled() plus a non-zero
 * period arm recording, and nothing recorded here ever feeds back into
 * simulation state — results stay bit-identical with sampling on
 * (tests/test_attribution.cc locks this down).
 *
 * Threading model: the sweep runner executes each experiment point on
 * one worker thread, so per-thread scopes double as per-point scopes;
 * drainScope() hands a completed point's data to the caller, which
 * writes it as an attribution side file (writeAttributionJson). A
 * bench driving System directly writes what it recorded as one more
 * side file at exit (drainAll()). bench_dashboard renders from those
 * files.
 */

#ifndef CAPART_OBS_TIMESERIES_HH
#define CAPART_OBS_TIMESERIES_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hh"

namespace capart::obs
{

/** One owner's (application's) slice of one attribution sample. */
struct OwnerSample
{
    unsigned owner = 0;
    /** LLC lines resident and owned at sample time. */
    std::uint64_t residentLines = 0;
    /** residentLines / sets: average ways of each set occupied. */
    double occupancyWays = 0.0;
    /** The owner's LLC way mask at sample time. */
    std::uint32_t wayMaskBits = 0;
    /** Cumulative instructions retired. */
    std::uint64_t retired = 0;
    /** Cumulative core cycles, equal to the sum of the five stalls. */
    std::uint64_t cycles = 0;
    /** Cumulative stall breakdown (compute/L2/LLC/DRAM/queueing). */
    std::uint64_t stallCompute = 0;
    std::uint64_t stallL2 = 0;
    std::uint64_t stallLlc = 0;
    std::uint64_t stallDram = 0;
    std::uint64_t stallQueue = 0;
    /** Cumulative attributed energy (core busy / LLC / DRAM joules). */
    double busyJ = 0.0;
    double llcJ = 0.0;
    double dramJ = 0.0;
    /** Cumulative DRAM bytes per channel. */
    std::vector<std::uint64_t> channelBytes;
};

/** One snapshot of the whole machine, taken every N quanta. */
struct AttributionSample
{
    /** Simulated microseconds at the sampling quantum. */
    double tUs = 0.0;
    /** Quanta executed so far (the sampling clock). */
    std::uint64_t quantum = 0;
    /** Total LLC lines resident (conservation: owners sum to this). */
    std::uint64_t llcResidentLines = 0;
    std::uint64_t llcSets = 0;
    unsigned llcWays = 0;
    /** Model-total dynamic socket / DRAM joules at sample time. */
    double socketDynamicJ = 0.0;
    double dramJ = 0.0;
    std::vector<OwnerSample> owners;
};

/**
 * One structured control-plane record: a partitioner decision, an SLO
 * evaluation, or the start of one System run of a study point. Flat
 * name->number fields keep the schema open (and map 1:1 onto
 * run-ledger metric pairs for replay).
 */
struct JournalEntry
{
    double tUs = 0.0;
    std::string kind; //!< "decision", "npartition_decision", "slo", "run"
    std::string rule; //!< rule that fired / transition that occurred
    std::vector<std::pair<std::string, double>> fields;

    double field(const std::string &name, double fallback = 0.0) const;
};

/** A drained scope: one experiment point's samples plus journal. */
struct AttributionBatch
{
    std::string label;          //!< bench/point label for display
    std::uint64_t specHash = 0; //!< owning ExperimentSpec, if any
    std::string attrFile;       //!< side file this batch was written to
    std::vector<AttributionSample> samples;
    std::vector<JournalEntry> journal;
};

/** Ring-buffered attribution recorder; see file comment. */
class TimeSeries
{
  public:
    TimeSeries();
    ~TimeSeries();

    TimeSeries(const TimeSeries &) = delete;
    TimeSeries &operator=(const TimeSeries &) = delete;

    /**
     * Quanta between samples; 0 disables sampling. The simulator reads
     * this each quantum (one relaxed load), so flipping it mid-process
     * takes effect immediately.
     */
    void setPeriod(std::uint64_t quanta);
    std::uint64_t
    period() const
    {
        return period_.load(std::memory_order_relaxed);
    }

    /** Record a sample into the calling thread's ring. */
    void record(AttributionSample sample);

    /** Append a control-plane record to the calling thread's scope. */
    void journal(JournalEntry entry);

    /**
     * Move the calling thread's retained samples and journal entries
     * (oldest first) into a batch, leaving the scope empty. Sweep
     * workers call this after each point.
     */
    AttributionBatch drainScope();

    /**
     * drainScope() for every scope at once, into one batch. Unlike
     * drainScope() it touches no thread_local state, so a bench's
     * atexit handler (which runs after the main thread's thread_local
     * objects are destroyed) can export what it recorded outside a
     * sweep.
     */
    AttributionBatch drainAll();

    /** Forget everything recorded. */
    void clear();

  private:
    /** Samples retained per recording thread. */
    static constexpr std::size_t kSampleCapacity = 1 << 12;
    /** Journal entries retained per recording thread. */
    static constexpr std::size_t kJournalCapacity = 1 << 14;

    struct Scope
    {

        std::vector<AttributionSample> samples =
            std::vector<AttributionSample>(kSampleCapacity);
        std::size_t sampleNext = 0;
        std::uint64_t samplesRecorded = 0;
        std::vector<JournalEntry> journal =
            std::vector<JournalEntry>(kJournalCapacity);
        std::size_t journalNext = 0;
        std::uint64_t journalRecorded = 0;
    };

    Scope &scope();
    static void drainRing(Scope &s, AttributionBatch *out);

    const std::uint64_t id_; //!< distinguishes instances in TLS cache
    std::atomic<std::uint64_t> period_{0};

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Scope>> scopes_;
};

/** The process-wide attribution recorder. */
TimeSeries &timeseries();

/** Write a batch as a standalone attribution JSON document. */
void writeAttributionJson(std::ostream &os, const AttributionBatch &batch);

/** Parse a document written by writeAttributionJson. */
bool parseAttributionJson(const std::string &text, AttributionBatch *out);

} // namespace capart::obs

#endif // CAPART_OBS_TIMESERIES_HH
