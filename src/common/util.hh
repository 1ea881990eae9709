/**
 * @file
 * Small helpers shared across layers: the FNV-1a 64-bit hash behind
 * spec hashes and cache checksums, exact text for doubles and 64-bit
 * hashes, the wall-clock stamp ledger records carry, and whole-file
 * reads.
 */

#ifndef CAPART_COMMON_UTIL_HH
#define CAPART_COMMON_UTIL_HH

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace capart
{

/** FNV-1a 64-bit hash of @p s. Spec hashes, ResultCache checksums and
 *  the micro-bench ledger keys all use it, so it must never change. */
inline std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Exact, locale-free double encoding (hexfloat). */
inline std::string
hexDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** `0x` plus 16 lowercase hex digits: how obs files write spec hashes. */
inline std::string
hexU64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

/** Parse @p s whole as a 64-bit integer (`0x...` hex or decimal) into
 *  @p out; false when @p s is empty or has trailing characters. */
inline bool
parseU64(const std::string &s, std::uint64_t *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    *out = std::strtoull(s.c_str(), &end, 0);
    return end && *end == '\0';
}

/** Wall-clock milliseconds since the Unix epoch. */
inline double
unixMillisNow()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/** The whole file at @p path into @p out; false if it cannot be read. */
inline bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    *out = text.str();
    return true;
}

} // namespace capart

#endif // CAPART_COMMON_UTIL_HH
