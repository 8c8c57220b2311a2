#include "specs.hh"

#include <sstream>
#include <stdexcept>

#include "faults/fault_model.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using paradox::core::Mode;
using paradox::exp::ExperimentSpec;

namespace
{

/**
 * Workload sizes.  fig13-sweep runs at bench_fig13's scale, long
 * enough for the DVFS controller to reach its steady state; the
 * fault-storm rates make every scale-2 job error-intensive; the
 * campaign jobs stay at scale 1 so that set-up is a large share.
 */
constexpr unsigned fig13Scale = 24;
constexpr unsigned stormScale = 2;
constexpr unsigned campaignScale = 1;

/** Error-intensive fixed rates (per targeted event / per load). */
constexpr double stormCheckerRate = 1e-4;
constexpr double stormEccRate = 1e-4;
/** Memory-upset rates of the campaign's ECC configs (per load). */
constexpr double campaignEccRate = 1e-4;
constexpr double campaignHotEccRate = 1e-3;
/**
 * Voltage decrease step of the chip + DVFS jobs.  fault_campaign uses
 * 0.002; at that step the per-chip cost varied up to 35x with the
 * seed, so the storm undervolts more slowly.
 */
constexpr double stormVoltageStep = 0.0005;

/** splitmix64: the benchmark's own generator, so spec draws never
 *  change when the simulator's RNG does. */
class Draw
{
  public:
    explicit Draw(std::uint64_t seed) : s_(seed) {}
    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** A non-zero 32-bit seed (0 means "off" for chip seeds). */
    std::uint64_t
    seed()
    {
        return (next() & 0xffffffffull) | 1u;
    }

  private:
    std::uint64_t s_;
};

Job
base(const std::string &kernel, unsigned scale, Mode mode,
     std::string config)
{
    Job j;
    j.spec.workload = kernel;
    j.spec.scale = scale;
    j.spec.mode = mode;
    j.config = std::move(config);
    return j;
}

std::vector<Job>
fig13Sweep(Draw &draw)
{
    std::vector<Job> jobs;
    for (const std::string &k : paradox::workloads::allNames()) {
        const std::uint64_t seed = draw.seed();
        Job b = base(k, fig13Scale, Mode::Baseline, "margined");
        b.spec.seed = seed;
        jobs.push_back(b);
        Job p = base(k, fig13Scale, Mode::ParaDox, "dvfs");
        p.spec.seed = seed;
        p.spec.dvfs = true;
        jobs.push_back(p);
    }
    return jobs;
}

std::vector<Job>
faultStorm(Draw &draw)
{
    std::vector<Job> jobs;
    for (const std::string &k : paradox::workloads::allNames()) {
        Job a = base(k, stormScale, Mode::ParaDox, "rate+ecc");
        a.spec.seed = draw.seed();
        a.spec.faultRate = stormCheckerRate;
        a.spec.eccRate = stormEccRate;
        jobs.push_back(a);

        Job c = base(k, stormScale, Mode::ParaDox, "chip+dvfs+ladder");
        c.spec.seed = draw.seed();
        c.spec.chipSeed = draw.seed();
        c.spec.dvfs = true;
        c.spec.escalate = true;
        c.spec.configure = [](paradox::core::SystemConfig &cfg) {
            cfg.voltage.decreaseStep = stormVoltageStep;
        };
        jobs.push_back(c);
    }
    return jobs;
}

std::vector<Job>
campaignShort(Draw &draw)
{
    using paradox::faults::Persistence;
    std::vector<Job> jobs;
    for (const std::string &k : paradox::workloads::allNames()) {
        // Detection-only stops the machine at its first detection by
        // design, so its fault configs are SECDED-corrected memory
        // upsets, which never reach the checkers.
        for (double ecc : {campaignEccRate, campaignHotEccRate}) {
            Job d = base(k, campaignScale, Mode::DetectionOnly,
                         ecc == campaignEccRate ? "ecc" : "ecc-hot");
            d.spec.seed = draw.seed();
            d.spec.eccRate = ecc;
            d.spec.vuln = true;
            jobs.push_back(d);
        }
        for (Mode m : {Mode::ParaMedic, Mode::ParaDox}) {
            Job t = base(k, campaignScale, m, "transient");
            t.spec.seed = draw.seed();
            t.spec.faultRate = stormCheckerRate;
            t.spec.vuln = true;
            jobs.push_back(t);

            Job i = base(k, campaignScale, m, "intermittent+ecc");
            i.spec.seed = draw.seed();
            i.spec.faultRate = stormCheckerRate;
            i.spec.persistence = Persistence::Intermittent;
            i.spec.pinChecker = 0;
            i.spec.eccRate = campaignEccRate;
            i.spec.vuln = true;
            jobs.push_back(i);
        }
    }
    return jobs;
}

} // namespace

std::vector<Job>
makeJobs(const std::string &workload, std::uint64_t seed)
{
    // Each workload draws from its own stream of the seed.
    Draw draw(fnv1a(workload) ^ seed);
    std::vector<Job> jobs;
    if (workload == "fig13-sweep")
        jobs = fig13Sweep(draw);
    else if (workload == "fault-storm")
        jobs = faultStorm(draw);
    else if (workload == "campaign-short")
        jobs = campaignShort(draw);
    else
        throw std::invalid_argument("unknown workload '" + workload +
                                    "'");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].spec.label = workload + "/" + std::to_string(i);
    return jobs;
}

std::string
describeJob(const Job &job)
{
    const ExperimentSpec &s = job.spec;
    std::ostringstream os;
    os.precision(17);
    os << "{\"kernel\":\"" << s.workload << "\",\"mode\":\""
       << paradox::core::modeName(s.mode) << "\",\"config\":\""
       << job.config << "\",\"scale\":" << s.scale
       << ",\"seed\":" << s.seed << ",\"fault_rate\":" << s.faultRate
       << ",\"persistence\":\""
       << paradox::faults::persistenceName(s.persistence)
       << "\",\"pin_checker\":" << s.pinChecker
       << ",\"ecc_rate\":" << s.eccRate
       << ",\"dvfs\":" << (s.dvfs ? "true" : "false")
       << ",\"escalate\":" << (s.escalate ? "true" : "false")
       << ",\"chip_seed\":" << s.chipSeed
       << ",\"vuln\":" << (s.vuln ? "true" : "false") << "}";
    return os.str();
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace perfbench
