/**
 * @file
 * Operator's view of a trace-cache directory (analysis/trace_cache,
 * analysis/cache_janitor). Everything the runner does implicitly —
 * recovery GC, budget eviction, entry validation — exposed as explicit
 * commands for inspection, CI smoke checks and manual cleanup:
 *
 *   teacachectl [--dir DIR] stats    one-line accounting summary
 *   teacachectl [--dir DIR] scan     per-file listing with classification
 *   teacachectl [--dir DIR] gc       full janitor pass (env budgets)
 *   teacachectl [--dir DIR] evict --max-bytes N
 *                                    budget-only pass with an explicit cap
 *   teacachectl [--dir DIR] verify [--quarantine]
 *                                    validate every entry end to end;
 *                                    exits 1 when any entry is damaged
 *
 * DIR defaults to the runner's own resolution: TEA_TRACE_CACHE_DIR,
 * else ${TMPDIR:-/tmp}/tea-trace-cache. Janitor budgets come from the
 * same environment variables the runner reads (JanitorConfig::fromEnv:
 * TEA_TRACE_CACHE_MAX_BYTES, TEA_CACHE_QUARANTINE_MAX,
 * TEA_CACHE_QUARANTINE_MAX_AGE_S, TEA_CACHE_ORPHAN_MAX_AGE_S).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "analysis/cache_janitor.hh"
#include "analysis/trace_cache.hh"
#include "common/env.hh"
#include "common/logging.hh"

using namespace tea;

namespace {

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: teacachectl [--dir DIR] <command>\n"
        "\n"
        "commands:\n"
        "  stats                   one-line cache accounting\n"
        "  scan                    list every cache file, classified\n"
        "  gc                      janitor pass with env budgets\n"
        "  evict --max-bytes N     janitor pass with an explicit byte cap\n"
        "  verify [--quarantine]   validate every entry; exit 1 on damage\n"
        "\n"
        "DIR defaults to TEA_TRACE_CACHE_DIR, else\n"
        "${TMPDIR:-/tmp}/tea-trace-cache. Budgets come from\n"
        "TEA_TRACE_CACHE_MAX_BYTES, TEA_CACHE_QUARANTINE_MAX,\n"
        "TEA_CACHE_QUARANTINE_MAX_AGE_S and TEA_CACHE_ORPHAN_MAX_AGE_S.\n",
        to);
}

/** The directory the runner itself would use under this environment. */
std::string
defaultDir()
{
    TraceCacheOptions opts = TraceCacheOptions::fromEnv();
    if (!opts.dir.empty())
        return opts.dir;
    // Caching disabled in the environment: still resolve the default
    // location so `teacachectl stats` works without TEA_TRACE_CACHE=1.
    const char *tmp = std::getenv("TMPDIR");
    std::string base =
        (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    if (base.back() == '/')
        base.pop_back();
    return base + "/tea-trace-cache";
}

void
listFiles(const char *label, const std::vector<CacheFileInfo> &files)
{
    for (const CacheFileInfo &f : files)
        std::printf("%-10s %12llu  %s\n", label,
                    static_cast<unsigned long long>(f.bytes),
                    f.path.c_str());
}

int
cmdStats(const std::string &dir)
{
    CacheScan scan = scanCacheDir(dir);
    std::printf("%s: %zu entr%s (%llu bytes), %zu tmp, %zu lock(s), "
                "%zu quarantined, %llu bytes total\n",
                dir.c_str(), scan.entries.size(),
                scan.entries.size() == 1 ? "y" : "ies",
                static_cast<unsigned long long>(scan.entryBytes),
                scan.tmpFiles.size(), scan.lockFiles.size(),
                scan.quarantine.size(),
                static_cast<unsigned long long>(scan.totalBytes));
    return 0;
}

int
cmdScan(const std::string &dir)
{
    CacheScan scan = scanCacheDir(dir);
    listFiles("entry", scan.entries);
    listFiles("tmp", scan.tmpFiles);
    listFiles("lock", scan.lockFiles);
    listFiles("quarantine", scan.quarantine);
    listFiles("reason", scan.reasons);
    return 0;
}

int
runJanitor(const std::string &dir, const JanitorConfig &cfg)
{
    JanitorStats stats = CacheJanitor(dir, cfg).gc();
    if (stats.lockBusy) {
        std::fprintf(stderr,
                     "teacachectl: %s is being cleaned by another "
                     "process; nothing done\n",
                     CacheJanitor::lockPathFor(dir).c_str());
        return 1;
    }
    std::printf("%s: scanned %llu entr%s (%llu bytes); evicted %llu "
                "(%llu bytes); removed %llu tmp, %llu lock(s), %llu "
                "quarantine file(s)\n",
                dir.c_str(),
                static_cast<unsigned long long>(stats.scannedEntries),
                stats.scannedEntries == 1 ? "y" : "ies",
                static_cast<unsigned long long>(stats.scannedBytes),
                static_cast<unsigned long long>(stats.evictedEntries),
                static_cast<unsigned long long>(stats.evictedBytes),
                static_cast<unsigned long long>(stats.removedTmp),
                static_cast<unsigned long long>(stats.removedLocks),
                static_cast<unsigned long long>(
                    stats.removedQuarantine));
    return 0;
}

int
cmdVerify(const std::string &dir, bool quarantine)
{
    CacheVerifyReport report = verifyCacheDir(dir, quarantine);
    for (const std::string &d : report.damagedPaths)
        std::fprintf(stderr, "teacachectl: DAMAGED %s\n", d.c_str());
    std::printf("%s: %llu entr%s checked, %llu healthy, %llu damaged%s\n",
                dir.c_str(),
                static_cast<unsigned long long>(report.checked),
                report.checked == 1 ? "y" : "ies",
                static_cast<unsigned long long>(report.healthy),
                static_cast<unsigned long long>(report.damaged),
                quarantine && report.damaged > 0 ? " (quarantined)"
                                                 : "");
    return report.clean() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir;
    std::string command;
    std::uint64_t evict_max = 0;
    bool have_evict_max = false;
    bool quarantine = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--dir") {
            if (++i >= argc)
                tea_fatal("--dir needs a value");
            dir = argv[i];
        } else if (arg == "--max-bytes") {
            if (++i >= argc)
                tea_fatal("--max-bytes needs a value");
            evict_max = parseUnsigned(
                "--max-bytes", argv[i], 0,
                std::numeric_limits<std::uint64_t>::max());
            have_evict_max = true;
        } else if (arg == "--quarantine") {
            quarantine = true;
        } else if (!arg.empty() && arg[0] == '-') {
            usage(stderr);
            tea_fatal("unknown option \"%s\"", arg.c_str());
        } else if (command.empty()) {
            command = arg;
        } else {
            usage(stderr);
            tea_fatal("unexpected argument \"%s\"", arg.c_str());
        }
    }
    if (command.empty()) {
        usage(stderr);
        return 2;
    }
    if (dir.empty())
        dir = defaultDir();

    if (command == "stats")
        return cmdStats(dir);
    if (command == "scan")
        return cmdScan(dir);
    if (command == "gc")
        return runJanitor(dir, JanitorConfig::fromEnv());
    if (command == "evict") {
        if (!have_evict_max)
            tea_fatal("evict needs --max-bytes N");
        JanitorConfig cfg = JanitorConfig::fromEnv();
        cfg.maxBytes = evict_max;
        return runJanitor(dir, cfg);
    }
    if (command == "verify")
        return cmdVerify(dir, quarantine);

    usage(stderr);
    tea_fatal("unknown command \"%s\"", command.c_str());
}
