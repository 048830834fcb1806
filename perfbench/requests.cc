/**
 * @file
 * Seeded request generator (see requests.hh).
 */

#include "requests.hh"

#include <fstream>
#include <random>
#include <set>

#include "api/request.hh"

namespace perfbench
{

namespace
{

using oma::api::AllocationRequest;

/** Uniform draw in [0, n); the raw engine output keeps the stream
 * identical on every standard library. */
std::uint64_t
pick(std::mt19937_64 &rng, std::uint64_t n)
{
    return rng() % n;
}

/** A model seed no other request of this run uses. */
std::uint64_t
freshSeed(std::mt19937_64 &rng, std::set<std::uint64_t> &used)
{
    for (;;) {
        const std::uint64_t seed = 1 + pick(rng, 1'000'000'000);
        if (used.insert(seed).second)
            return seed;
    }
}

/** The Table 6 question over the six-workload mix for one
 * measurement: (OS, model seed, classic or extended space). */
AllocationRequest
baseRequest(oma::OsKind os, std::uint64_t seed, bool extended,
            unsigned threads, std::uint64_t references)
{
    AllocationRequest request;
    request.os = os;
    request.seed = seed;
    request.references = references;
    if (extended)
        request.space = oma::ConfigSpace::extended();
    request.threads = threads;
    return request;
}

/** Shape @p shape of the four-shape cycle: bit 0 picks Ultrix over
 * Mach, bit 1 the extended space over the classic one. */
AllocationRequest
shapeRequest(std::size_t shape, std::uint64_t seed, unsigned threads,
             std::uint64_t references)
{
    return baseRequest((shape & 1) != 0 ? oma::OsKind::Ultrix
                                        : oma::OsKind::Mach,
                       seed, (shape & 2) != 0, threads, references);
}

/** A budget in [low, low + width) rbe, in steps of 100, never the
 * base questions' 250,000. */
double
drawBudget(std::mt19937_64 &rng, std::uint64_t low, std::uint64_t width)
{
    for (;;) {
        const std::uint64_t budget = low + 100 * pick(rng, width / 100);
        if (budget != 250'000)
            return double(budget);
    }
}

/** A question over @p base's measurement with new search knobs:
 * @p budget, @p ways and @p strategy as given (annealing with seed
 * @p anneal_seed), top-K drawn. */
AllocationRequest
variant(const AllocationRequest &base, std::mt19937_64 &rng,
        double budget, std::uint64_t ways, oma::api::Strategy strategy,
        std::uint64_t anneal_seed)
{
    AllocationRequest request = base;
    request.budgetRbe = budget;
    request.maxCacheWays = ways;
    request.strategy = strategy;
    if (strategy == oma::api::Strategy::Annealing)
        request.annealing.seed = anneal_seed;
    request.topK = 1 + pick(rng, 20);
    return request;
}

constexpr std::uint64_t cacheWays[] = {1, 2, 4, 8};

/** Warm-sweep cycle: every shape x strategy x ways-limit combination
 * once, each near the middle of its own eighth of the
 * 100,000..400,000 rbe budget range (exhaustive search time grows
 * steeply with the budget), so every whole cycle costs about the same
 * mix of searches. */
constexpr std::size_t warmSweepCycle = 4 * 2 * 4;

/** Fully-warm: stored answers, and batches per cycle. */
constexpr std::size_t fullyWarmAnswers = 8;
constexpr std::size_t fullyWarmCycle = 64;

} // namespace

bool
workloadFromName(std::string_view name, Workload &out)
{
    for (const Workload w :
         {Workload::Cold, Workload::WarmSweep, Workload::FullyWarm}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
      case Workload::Cold:
        return "cold";
      case Workload::WarmSweep:
        return "warm-sweep";
      case Workload::FullyWarm:
        return "fully-warm";
    }
    return "?";
}

GeneratedWorkload
generate(Workload workload, std::uint64_t seed, unsigned threads)
{
    const std::uint64_t references =
        workload == Workload::Cold ? coldReferences : warmReferences;
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL +
                        std::uint64_t(workload));
    std::set<std::uint64_t> used;
    std::set<std::string> asked;
    GeneratedWorkload out;
    const auto unique = [&asked](const AllocationRequest &request) {
        std::string line = oma::api::encodeRequest(request);
        return asked.insert(line).second ? line : std::string();
    };

    switch (workload) {
      case Workload::Cold: {
        // Warm-up only: a small question on a scratch store, so code
        // paging and allocator growth land in setup.
        out.setup.push_back(oma::api::encodeRequest(
            baseRequest(oma::OsKind::Mach, freshSeed(rng, used), false,
                        threads, references / 10)));
        // Far more questions than a run can answer; every one is a
        // new measurement.
        for (std::size_t q = 0; q < 400; ++q)
            out.batches.push_back({oma::api::encodeRequest(shapeRequest(
                q % 4, freshSeed(rng, used), threads, references))});
        break;
      }
      case Workload::WarmSweep: {
        const std::uint64_t model_seed = freshSeed(rng, used);
        std::vector<AllocationRequest> bases;
        for (std::size_t shape = 0; shape < 4; ++shape) {
            bases.push_back(
                shapeRequest(shape, model_seed, threads, references));
            out.setup.push_back(unique(bases.back()));
        }
        for (std::size_t q = 0; out.batches.size() < 4000; ++q) {
            const std::size_t p = out.batches.size() % warmSweepCycle;
            const oma::api::Strategy strategy =
                (p / 4) % 2 == 0 ? oma::api::Strategy::Exhaustive
                                 : oma::api::Strategy::Annealing;
            const std::uint64_t eighth = (p % 8 + 2 * (p / 8)) % 8;
            std::string line = unique(variant(
                bases[p % 4], rng,
                drawBudget(rng, 118'300 + 37'500 * eighth, 1'100),
                cacheWays[p / 8], strategy, 1000 + q));
            if (!line.empty())
                out.batches.push_back({std::move(line)});
        }
        break;
      }
      case Workload::FullyWarm: {
        const AllocationRequest base = baseRequest(
            oma::OsKind::Mach, freshSeed(rng, used), false, threads,
            references);
        out.setup.push_back(unique(base));
        for (std::size_t q = 0; out.setup.size() < 8; ++q) {
            const oma::api::Strategy strategy =
                q % 2 == 0 ? oma::api::Strategy::Exhaustive
                           : oma::api::Strategy::Annealing;
            AllocationRequest request =
                variant(base, rng, drawBudget(rng, 100'000, 300'100),
                        cacheWays[q % 4], strategy, 1000 + q);
            // Every stored answer the same length as the base's, so
            // what one costs to serve does not depend on the seed.
            request.topK = base.topK;
            std::string line = unique(request);
            if (!line.empty())
                out.setup.push_back(std::move(line));
        }
        // One cycle of 64 batches, each stored answer asked in eight
        // of them, in a seeded order. Every fourth batch carries its
        // line three times, which the engine coalesces; a batch of
        // one distinct line is answered on the calling thread.
        std::vector<std::size_t> order;
        for (std::size_t b = 0; b < fullyWarmCycle; ++b)
            order.push_back(b % fullyWarmAnswers);
        for (std::size_t b = order.size(); b > 1; --b)
            std::swap(order[b - 1], order[pick(rng, b)]);
        for (std::size_t b = 0; b < fullyWarmCycle; ++b) {
            const std::string &a = out.setup[order[b]];
            if (b % 4 == 3)
                out.batches.push_back({a, a, a});
            else
                out.batches.push_back({a});
        }
        break;
      }
    }
    return out;
}

std::size_t
cycleLength(Workload workload, const std::vector<Batch> &batches)
{
    switch (workload) {
      case Workload::Cold:
        return 4;
      case Workload::WarmSweep:
        return warmSweepCycle;
      case Workload::FullyWarm:
        break;
    }
    return batches.size();
}

void
writeBatches(const std::string &path, const std::vector<Batch> &batches)
{
    std::ofstream out(path, std::ios::trunc);
    for (const Batch &batch : batches) {
        for (const std::string &line : batch)
            out << line << '\n';
        out << '\n';
    }
}

bool
readBatches(const std::string &path, std::vector<Batch> &batches)
{
    std::ifstream in(path);
    if (!in.is_open())
        return false;
    batches.clear();
    Batch batch;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) {
            if (!batch.empty())
                batches.push_back(std::move(batch));
            batch.clear();
        } else {
            batch.push_back(line);
        }
    }
    if (!batch.empty())
        batches.push_back(std::move(batch));
    return true;
}

} // namespace perfbench
