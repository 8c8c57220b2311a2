/**
 * @file
 * The benchmark's workloads: each one is a fixed-shape list of
 * exp::ExperimentSpec jobs whose seeds (fault seeds, chip seeds) are
 * drawn from the benchmark seed.  Nothing else reaches the simulator.
 */

#ifndef PERFBENCH_SPECS_HH
#define PERFBENCH_SPECS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/spec.hh"

namespace perfbench
{

/** One job of a workload: the spec plus what the report groups by. */
struct Job
{
    paradox::exp::ExperimentSpec spec;
    std::string config;  //!< fault configuration tag
};

/**
 * The jobs of @p workload for benchmark seed @p seed.  The same seed
 * always gives the same jobs.  Throws std::invalid_argument for an
 * unknown workload name.
 */
std::vector<Job> makeJobs(const std::string &workload, std::uint64_t seed);

/** One JSON object describing @p job (everything that varies). */
std::string describeJob(const Job &job);

/** FNV-1a over @p bytes, continuing from @p h. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

} // namespace perfbench

#endif // PERFBENCH_SPECS_HH
