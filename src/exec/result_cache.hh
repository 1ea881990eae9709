/**
 * @file
 * On-disk memoization of sweep results.
 *
 * A cache is one append-only text file: a version header followed by
 * one record per completed sweep point, keyed by the point's derived
 * seed (`mixSeed(base_seed, spec.hash())`). Doubles are stored as
 * hexfloat so a cache hit round-trips bit-exactly — cached and freshly
 * computed sweeps produce byte-identical bench output. Records are
 * flushed as they complete, so a sweep killed mid-flight resumes from
 * its last finished point. Unreadable or version-mismatched files are
 * ignored wholesale (recompute beats wrong reuse).
 *
 * Hardened against corruption: every line carries an FNV-1a checksum
 * (format v2), and loading verifies it — plus the finiteness of every
 * stored double — before an entry is believed. A truncated tail, a
 * flipped bit, or hand-edited garbage is logged, counted on the
 * `cache.corrupt` observability counter, and skipped, so the affected
 * point recomputes; a corrupt cache can never crash the runner or
 * feed poisoned data into a sweep.
 */

#ifndef CAPART_EXEC_RESULT_CACHE_HH
#define CAPART_EXEC_RESULT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "exec/sweep_runner.hh"

namespace capart::exec
{

/** Thread-safe, write-through result store; see file comment. */
class ResultCache
{
  public:
    /** Opens @p path, loading any compatible existing records. */
    explicit ResultCache(std::string path);

    /** True and fills @p out if @p key has a stored result. */
    bool lookup(std::uint64_t key, SweepResult *out) const;

    /** Record @p res under @p key and flush it to disk. */
    void store(std::uint64_t key, const SweepResult &res);

    std::size_t size() const;
    const std::string &path() const { return path_; }

    /** Serialize / parse one record body (exposed for tests). Decode
     *  rejects malformed tokens, trailing junk, and non-finite values. */
    static std::string encode(const SweepResult &res);
    static bool decode(const std::string &body, SweepResult *out);

    /**
     * Create @p path as an empty compatible cache (header only) if it
     * is missing or has a foreign/old header. Call before several
     * processes share one cache file: a process that opens an
     * incompatible file truncate-rewrites it on first store, which
     * races siblings' appends; with the header pre-written everyone
     * only ever appends checksummed lines, which is concurrency-safe.
     * No-op on a compatible file.
     */
    static void initializeFile(const std::string &path);

    /** Append the v2 checksum suffix to "<hex key> <body>" (tests). */
    static std::string checksumLine(const std::string &keyed_body);
    /** Verify a full on-disk line's checksum; on success strips the
     *  suffix into @p keyed_body (tests). */
    static bool verifyLine(const std::string &line, std::string *keyed_body);

  private:
    std::string path_;
    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, SweepResult> entries_;
    /** File had our header (append) vs. absent/foreign (rewrite). */
    bool fileCompatible_ = false;
    /** The file ended mid-line when loaded (see store()). */
    bool tornTail_ = false;
};

} // namespace capart::exec

#endif // CAPART_EXEC_RESULT_CACHE_HH
