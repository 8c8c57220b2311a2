#include "ledger.hh"

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "analysis/vuln.hh"
#include "core/checker_replay.hh"
#include "core/lslog.hh"
#include "core/result_json.hh"
#include "core/system.hh"
#include "cpu/branch_pred.hh"
#include "cpu/checker_timing.hh"
#include "cpu/main_core.hh"
#include "faults/chip_model.hh"
#include "isa/decoded.hh"
#include "isa/decoded_run.hh"
#include "mem/hierarchy.hh"
#include "mem/memory.hh"
#include "mem/secded.hh"
#include "mem/tlb.hh"
#include "power/undervolt_data.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace paradox;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
Spans::begin(const char *name, int parent)
{
    spans_.push_back({name, parent, nowNs(), 0, 0});
    return int(spans_.size()) - 1;
}

void
Spans::end(int idx, std::uint64_t work)
{
    spans_[std::size_t(idx)].end = nowNs();
    spans_[std::size_t(idx)].work = work;
}

std::string
Spans::json() const
{
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[192];
        std::snprintf(buf, sizeof buf, "%s[\"%s\",%d,%lld,%lld,%llu]",
                      i ? "," : "", s.name, s.parent,
                      (long long)s.start, (long long)s.end,
                      (unsigned long long)s.work);
        out += buf;
    }
    return out + "]";
}

std::string
runDigest(const std::string &result_json, const std::string &registry_json,
          std::uint64_t memory_fingerprint, std::uint64_t final_value)
{
    std::uint64_t h = fnv1a(result_json);
    h = fnv1a(registry_json, h);
    h = fnv1a(std::to_string(memory_fingerprint) + ":" +
                  std::to_string(final_value),
              h);
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

namespace
{

/** One captured segment of the commit stream. */
struct SegmentCut
{
    std::size_t first = 0;  //!< first record index
    std::size_t last = 0;   //!< one past the last record
    isa::ArchState start;
    isa::ArchState end;
};

/** A pre-store line image, taken before record @ref rec executed. */
struct LineImage
{
    std::size_t rec;
    Addr line;
    std::vector<std::uint8_t> bytes;
};

/** The captured fault-free commit stream of one job. */
struct Capture
{
    std::vector<isa::CommitRecord> records;
    std::vector<SegmentCut> cuts;
    std::vector<LineImage> images;
};

/** Log geometry the job's mode commits under (System::logResult). */
struct LogShape
{
    unsigned loadBytes;
    unsigned storeBytes;
    unsigned lineCopyBytes;  //!< 0 = no line copies
    std::size_t capacity;
    unsigned lineBytes;
};

LogShape
logShape(const core::SystemConfig &c)
{
    LogShape s;
    s.loadBytes = c.log.loadEntryBytes;
    s.storeBytes = c.log.storeEntryBytes;
    s.lineCopyBytes = 0;
    if (c.lineGranularityRollback)
        s.lineCopyBytes = c.log.lineCopyBytes;
    else if (c.rollbackSupported)
        s.storeBytes += c.log.storeOldValueBytes;
    s.capacity = c.log.segmentBytes;
    s.lineBytes = c.hierarchy.l1d.lineBytes;
    return s;
}

/**
 * Step the program functionally for up to @p cap instructions,
 * cutting segments the way a fault-free run does: at the AIMD target
 * length, or before an access the log has no room for.
 */
Capture
capture(const core::SystemConfig &config, const isa::Program &prog,
        std::size_t cap)
{
    const LogShape shape = logShape(config);
    const core::CheckpointAimdParams &aimd = config.checkpointAimd;
    auto engine = isa::makeEngine(config.engine, prog);
    isa::ArchState st;
    mem::SimpleMemory memory;
    engine->reset(st, memory);

    Capture c;
    c.records.reserve(cap);
    SegmentCut cur;
    cur.start = st;
    std::size_t used = 0;
    unsigned target = aimd.initial;
    std::unordered_set<Addr> copied;
    std::vector<Addr> fresh;

    auto cut = [&] {
        cur.last = c.records.size();
        cur.end = st;
        c.cuts.push_back(cur);
        cur.first = cur.last;
        cur.start = st;
        used = 0;
        copied.clear();
        if (config.adaptiveCheckpoints)
            target = std::min(target + aimd.increment, aimd.maxLength);
    };
    // Log bytes the access @p p needs; fills `fresh` with the lines it
    // must copy first.
    auto bytesFor = [&](const isa::MemPeek &p) -> std::size_t {
        fresh.clear();
        if (p.isLoad)
            return shape.loadBytes;
        if (!p.isStore)
            return 0;
        const Addr lb = shape.lineBytes;
        if (shape.lineCopyBytes)
            for (Addr l = p.addr & ~(lb - 1);
                 l <= ((p.addr + p.size - 1) & ~(lb - 1)); l += lb)
                if (!copied.count(l))
                    fresh.push_back(l);
        return shape.storeBytes + fresh.size() * shape.lineCopyBytes;
    };

    while (c.records.size() < cap) {
        const isa::MemPeek p = engine->peekMem(st);
        std::size_t need = bytesFor(p);
        const std::size_t in_seg = c.records.size() - cur.first;
        if (in_seg > 0 &&
            (in_seg >= target || used + need > shape.capacity)) {
            cut();
            need = bytesFor(p);
        }
        for (Addr l : fresh) {
            LineImage img{c.records.size(), l,
                          std::vector<std::uint8_t>(shape.lineBytes)};
            memory.readBlock(l, img.bytes.data(), shape.lineBytes);
            c.images.push_back(std::move(img));
            copied.insert(l);
        }
        const isa::CommitRecord r = engine->step(st, memory);
        if (!r.valid)
            break;
        c.records.push_back(r);
        used += need;
        if (r.halted)
            break;
    }
    if (c.records.size() > cur.first)
        cut();
    return c;
}

/** The job's SystemConfig, exactly as exp::runOne derives it. */
core::SystemConfig
configFor(const exp::ExperimentSpec &spec)
{
    core::SystemConfig config = core::SystemConfig::forMode(spec.mode);
    config.seed = spec.seed;
    if (spec.checkers)
        config.checkers.count = spec.checkers;
    if (spec.maxCheckpoint) {
        config.checkpointAimd.maxLength = spec.maxCheckpoint;
        config.checkpointAimd.initial = std::min(
            config.checkpointAimd.initial, spec.maxCheckpoint);
    }
    if (spec.timeoutFactor)
        config.checkerTimeoutFactor = spec.timeoutFactor;
    config.engine = spec.engine;
    config.memoryEccFaultRate = spec.eccRate;
    if (spec.escalate)
        config.enableEscalation();
    if (spec.configure)
        spec.configure(config);
    return config;
}

/** Build the job's System with its fault plans, as exp::runOne does. */
std::unique_ptr<core::System>
systemFor(const exp::ExperimentSpec &spec, const core::SystemConfig &config,
          const isa::Program &prog,
          std::shared_ptr<const analysis::VulnAnalysis> vuln)
{
    std::shared_ptr<const faults::ChipModel> chip;
    if (spec.chipSeed != 0) {
        faults::ChipConfig cc;
        cc.chipSeed = spec.chipSeed;
        cc.weakCells = spec.weakCells;
        cc.checkerCount = config.checkers.count;
        cc.logRows = unsigned(config.log.segmentBytes /
                              config.log.loadEntryBytes);
        cc.vminSigma = spec.vminSigma;
        cc.shape = power::errorModelParams(spec.workload);
        chip = std::make_shared<faults::ChipModel>(cc);
    }
    auto sys = std::make_unique<core::System>(config, prog);
    if (spec.dvfs) {
        sys->enableDvfs(power::errorModelParams(spec.workload));
        if (chip)
            sys->setFaultPlan(faults::chipPlan(spec.seed, spec.persistence,
                                               spec.pinChecker));
    } else if (chip) {
        sys->setFaultPlan(faults::chipPlan(spec.seed, spec.persistence,
                                           spec.pinChecker));
    } else if (spec.faultRate > 0.0) {
        sys->setFaultPlan(faults::uniformPlan(
            spec.faultRate, spec.seed, spec.persistence, spec.pinChecker));
    }
    if (chip) {
        sys->setMainCoreFaultPlan(faults::chipPlan(
            spec.seed * 31 + 7, spec.persistence, -1));
        sys->setChipModel(chip);
    }
    if (vuln)
        sys->setVulnModel(std::move(vuln));
    return sys;
}

/**
 * The injectors the faulty checker replay runs under: the job's own
 * fixed-rate plan, or -- for voltage-driven and fault-free jobs, whose
 * rate is not fixed -- a uniform 1e-4 plan on the job's seed.
 */
faults::FaultPlan
faultyPlanFor(const exp::ExperimentSpec &spec)
{
    if (spec.faultRate > 0.0 && spec.chipSeed == 0)
        return faults::uniformPlan(spec.faultRate, spec.seed,
                                   spec.persistence, spec.pinChecker);
    return faults::uniformPlan(1e-4, spec.seed);
}

/** Keeps a pass's results observable so it is not optimized away. */
volatile std::uint64_t sinkWord = 0;

} // namespace

std::string
ledgerJob(const Job &job, bool run_system, std::size_t replay_cap)
{
    const exp::ExperimentSpec &spec = job.spec;
    std::vector<std::string> errors;
    Spans spans;
    const int root = spans.begin("bench.ledger_job", -1);

    int s = spans.begin("workloads.build", root);
    const workloads::Workload w =
        workloads::build(spec.workload, spec.scale);
    spans.end(s);
    const isa::Program &prog = w.program;

    s = spans.begin("isa.decode", root);
    const std::shared_ptr<const isa::DecodedProgram> decoded =
        isa::DecodedProgram::get(prog);
    spans.end(s);

    // Timed on every job so each workload reports the layer's cost;
    // only jobs with spec.vuln install the model.
    s = spans.begin("analysis.vuln", root);
    std::shared_ptr<const analysis::VulnAnalysis> vuln =
        analysis::VulnAnalysis::build(
            prog, {{workloads::resultAddr, 8, "result"}});
    spans.end(s);

    s = spans.begin("core.system_init", root);
    const core::SystemConfig config = configFor(spec);
    std::unique_ptr<core::System> sys =
        systemFor(spec, config, prog, spec.vuln ? vuln : nullptr);
    spans.end(s);

    s = spans.begin("bench.capture", root);
    const Capture cap = capture(config, prog, replay_cap);
    const std::vector<isa::CommitRecord> &recs = cap.records;
    const std::uint64_t n = recs.size();
    spans.end(s, n);

    {
        auto engine = isa::makeEngine(config.engine, prog);
        isa::ArchState st;
        mem::SimpleMemory memory;
        engine->reset(st, memory);
        s = spans.begin("isa.engine", root);
        for (std::uint64_t i = 0; i < n; ++i)
            engine->step(st, memory);
        spans.end(s, n);
        if (!n || st.fingerprint() != cap.cuts.back().end.fingerprint())
            errors.push_back("engine replay diverged from capture");
    }

    {
        // The batched commit path System::run takes for most
        // instructions (main.sb_uops): one runDecoded() call.
        auto engine = isa::makeEngine(config.engine, prog);
        isa::ArchState st;
        mem::SimpleMemory memory;
        engine->reset(st, memory);
        std::uint64_t done = 0;
        s = spans.begin("isa.run_decoded", root);
        isa::runDecoded(*decoded, st, memory, n,
                        [&done](const isa::CommitRecord &) {
                            ++done;
                            return true;
                        });
        spans.end(s, done);
        if (done != n ||
            (n && st.fingerprint() != cap.cuts.back().end.fingerprint()))
            errors.push_back("decoded run diverged from capture");
    }

    {
        ClockDomain clock(config.mainFreqHz);
        mem::CacheHierarchy hier(config.hierarchy, clock);
        Tick t = 0;
        std::uint64_t acc = 0;
        s = spans.begin("mem.hierarchy", root);
        for (const isa::CommitRecord &r : recs) {
            acc += hier.instFetch(r.pc, t);
            if (r.isLoad || r.isStore)
                acc += hier.dataAccess(r.memAddr, r.pc, r.isStore, t)
                           .completeAt;
            t += clock.period();
        }
        spans.end(s, n);
        sinkWord = sinkWord + acc;
    }

    {
        mem::Tlb itlb(mem::TlbParams{}, config.physicalOffset);
        mem::Tlb dtlb(mem::TlbParams{}, config.physicalOffset);
        std::uint64_t acc = 0;
        s = spans.begin("mem.tlb", root);
        for (const isa::CommitRecord &r : recs) {
            acc += itlb.translate(r.pc).paddr;
            if (r.isLoad || r.isStore)
                acc += dtlb.translate(r.memAddr).paddr;
        }
        spans.end(s, n);
        sinkWord = sinkWord + acc;
    }

    {
        cpu::TournamentPredictor bp(config.mainCore.predictor);
        std::uint64_t miss = 0;
        s = spans.begin("cpu.bpred", root);
        for (const isa::CommitRecord &r : recs) {
            if (!(r.isBranch || r.isJump))
                continue;
            bp.predict(r.pc, *r.inst);
            miss += bp.update(r.pc, *r.inst, r.isJump ? true : r.taken,
                              r.nextPc);
        }
        spans.end(s, n);
        sinkWord = sinkWord + miss;
    }

    {
        ClockDomain clock(config.mainFreqHz);
        mem::CacheHierarchy hier(config.hierarchy, clock);
        cpu::MainCore core(config.mainCore, clock, hier);
        std::uint64_t acc = 0;
        s = spans.begin("cpu.main_core", root);
        for (const isa::CommitRecord &r : recs)
            acc += core.advance(r, mem::noPin, 0).commitAt;
        spans.end(s, n);
        sinkWord = sinkWord + acc;
    }

    const LogShape shape = logShape(config);
    std::vector<std::unique_ptr<core::LogSegment>> segs;
    segs.reserve(cap.cuts.size());
    s = spans.begin("core.log", root);
    std::size_t img = 0;
    for (std::size_t k = 0; k < cap.cuts.size(); ++k) {
        const SegmentCut &c = cap.cuts[k];
        auto seg = std::make_unique<core::LogSegment>();
        seg->open(k + 1, c.start, c.first, 0);
        for (std::size_t i = c.first; i < c.last; ++i) {
            const isa::CommitRecord &r = recs[i];
            if (r.isLoad) {
                seg->appendLoad(r.memAddr, r.memSize, r.loadValue,
                                shape.loadBytes);
            } else if (r.isStore) {
                for (; img < cap.images.size() && cap.images[img].rec == i;
                     ++img)
                    seg->appendLineCopy(cap.images[img].line,
                                        cap.images[img].bytes,
                                        shape.lineCopyBytes);
                seg->appendStore(r.memAddr, r.memSize, r.storeValue,
                                 r.storeOld, shape.storeBytes);
            }
        }
        seg->close(c.end, unsigned(c.last - c.first), 0);
        segs.push_back(std::move(seg));
    }
    spans.end(s, n);

    const unsigned checkers = config.checkers.count;
    {
        cpu::CheckerTiming timing(config.checkers);
        faults::FaultPlan none;
        std::uint64_t replayed = 0;
        s = spans.begin("core.checker", root);
        for (std::size_t k = 0; k < segs.size(); ++k) {
            const core::ReplayOutcome out = core::replaySegment(
                prog, *segs[k], unsigned(k % checkers), timing, none,
                config.rollback.finalCompareCycles,
                config.checkerTimeoutFactor, config.physicalOffset,
                decoded.get(), nullptr);
            replayed += out.instructionsExecuted;
            if (out.detected)
                errors.push_back(
                    std::string("fault-free replay detected ") +
                    core::detectReasonName(out.reason) + " in segment " +
                    std::to_string(k));
        }
        spans.end(s, replayed);
    }

    {
        cpu::CheckerTiming timing(config.checkers);
        faults::FaultPlan plan = faultyPlanFor(spec);
        std::uint64_t replayed = 0;
        s = spans.begin("core.checker_faulty", root);
        for (std::size_t k = 0; k < segs.size(); ++k)
            replayed += core::replaySegment(
                            prog, *segs[k], unsigned(k % checkers),
                            timing, plan,
                            config.rollback.finalCompareCycles,
                            config.checkerTimeoutFactor,
                            config.physicalOffset, decoded.get(), nullptr)
                            .instructionsExecuted;
        spans.end(s, replayed);
    }

    {
        std::uint64_t words = 0;
        bool intact = true;
        s = spans.begin("mem.secded", root);
        for (const auto &seg : segs) {
            for (const core::LineCopy &lc : seg->lineCopies()) {
                const std::vector<mem::EccWord> ecc = lc.eccWords();
                for (std::size_t wi = 0; wi < ecc.size(); ++wi) {
                    const mem::EccDecode d = mem::Secded::decode(ecc[wi]);
                    std::uint64_t want = 0;
                    for (unsigned b = 0; b < 8; ++b)
                        want |= std::uint64_t(lc.bytes[wi * 8 + b])
                                << (8 * b);
                    intact &= d.status == mem::EccStatus::Ok &&
                              d.data == want;
                }
                words += ecc.size();
            }
        }
        spans.end(s, words);
        if (!intact)
            errors.push_back("SECDED round trip changed a line copy");
    }

    std::string digest = "null";
    std::uint64_t net = 0;
    if (run_system) {
        s = spans.begin("core.system", root);
        const core::RunResult res = sys->run(spec.limits);
        spans.end(s, res.instructions);
        net = res.instructions;
        std::ostringstream reg;
        sys->registry().dumpJson(reg);
        digest = '"' +
                 runDigest(core::toJson(res), reg.str(),
                           res.memoryFingerprint,
                           sys->memory().read(workloads::resultAddr, 8)) +
                 '"';
    }
    spans.end(root, n);

    std::ostringstream out;
    out << "{\"spans\":" << spans.json() << ",\"replayed\":" << n
        << ",\"segments\":" << segs.size() << ",\"net\":" << net
        << ",\"digest\":" << digest << ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i)
        out << (i ? ",\"" : "\"") << errors[i] << '"';
    out << "]}";
    return out.str();
}

} // namespace perfbench
