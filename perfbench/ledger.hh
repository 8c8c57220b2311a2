/**
 * @file
 * The per-layer host-time ledger.  One job is set up layer by layer,
 * its functional commit stream is captured, and the stream is replayed
 * through each layer's public API on its own.  Every call into a layer
 * is bracketed by a span recorded in memory; the spans travel back to
 * the parent in the job's payload.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "specs.hh"

namespace perfbench
{

/** steady_clock now, in ns (CLOCK_MONOTONIC: comparable across fork). */
std::int64_t nowNs();

/**
 * In-memory span list of one job.  Parents are indices into the list;
 * -1 is the job span the parent process records from fork to reap.
 */
class Spans
{
  public:
    /** Open a span under @p parent; returns its index. */
    int begin(const char *name, int parent = 0);
    /** Close span @p idx, recording @p work units done inside it. */
    void end(int idx, std::uint64_t work = 1);
    /** JSON array of [name, parent, start_ns, end_ns, work]. */
    std::string json() const;

  private:
    struct Span
    {
        const char *name;
        int parent;
        std::int64_t start;
        std::int64_t end;
        std::uint64_t work;
    };
    std::vector<Span> spans_;
};

/**
 * Run the ledger for @p job and return its JSON payload.  At most
 * @p replay_cap committed instructions are captured and replayed.
 * The full System::run is timed only when @p run_system is set (a
 * job that crashes the simulator would lose every span with it).
 */
std::string ledgerJob(const Job &job, bool run_system,
                      std::size_t replay_cap);

/**
 * Digest of a finished run: FNV-1a over the RunResult JSON, the
 * stats registry JSON, the memory fingerprint and the result word.
 */
std::string runDigest(const std::string &result_json,
                      const std::string &registry_json,
                      std::uint64_t memory_fingerprint,
                      std::uint64_t final_value);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
