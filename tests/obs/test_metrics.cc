/**
 * @file
 * Unit tests for the metric registry, histogram, Span and Progress.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace oma::obs
{
namespace
{

TEST(Histogram, EmptyIsAllZero)
{
    Histogram h;
    EXPECT_EQ(h.count, 0u);
    EXPECT_EQ(h.sum, 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    for (unsigned b = 0; b < Histogram::numBuckets; ++b)
        EXPECT_EQ(h.buckets[b], 0u);
}

TEST(Histogram, BucketOfIsBitWidth)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(255), 8u);
    EXPECT_EQ(Histogram::bucketOf(256), 9u);
    EXPECT_EQ(Histogram::bucketOf(~std::uint64_t(0)), 64u);
}

TEST(Histogram, BucketBoundsBracketTheirSamples)
{
    // Every sample must fall strictly below its bucket's bound and at
    // or above the previous bucket's bound.
    const std::uint64_t samples[] = {0, 1, 2, 3, 7, 8, 1000,
                                     std::uint64_t(1) << 40};
    for (std::uint64_t s : samples) {
        const unsigned b = Histogram::bucketOf(s);
        if (b < 64) {
            EXPECT_LT(s, Histogram::bucketBound(b)) << s;
        }
        if (b > 0) {
            EXPECT_GE(s, Histogram::bucketBound(b - 1)) << s;
        }
    }
}

TEST(Histogram, AddTracksCountSumMinMax)
{
    Histogram h;
    h.add(5);
    h.add(0);
    h.add(100);
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.sum, 105u);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 35.0);
    EXPECT_EQ(h.buckets[0], 1u); // the zero
    EXPECT_EQ(h.buckets[3], 1u); // 5
    EXPECT_EQ(h.buckets[7], 1u); // 100
}

TEST(Histogram, MergeMatchesSequentialAdds)
{
    Histogram a, b, all;
    for (std::uint64_t s : {1u, 7u, 19u}) {
        a.add(s);
        all.add(s);
    }
    for (std::uint64_t s : {0u, 4u, 1000000u}) {
        b.add(s);
        all.add(s);
    }
    a.merge(b);
    EXPECT_EQ(a.count, all.count);
    EXPECT_EQ(a.sum, all.sum);
    EXPECT_EQ(a.min, all.min);
    EXPECT_EQ(a.max, all.max);
    for (unsigned i = 0; i < Histogram::numBuckets; ++i)
        EXPECT_EQ(a.buckets[i], all.buckets[i]) << "bucket " << i;
}

TEST(Histogram, MergingAnEmptyIsANoOp)
{
    Histogram a, empty;
    a.add(3);
    a.merge(empty);
    EXPECT_EQ(a.count, 1u);
    EXPECT_EQ(a.min, 3u);
    EXPECT_EQ(a.max, 3u);
    // And merging into an empty adopts the other side's extrema.
    Histogram c;
    c.merge(a);
    EXPECT_EQ(c.min, 3u);
    EXPECT_EQ(c.max, 3u);
}

TEST(MetricRegistry, CountersGaugesHistograms)
{
    MetricRegistry m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.counter("absent"), 0u);
    EXPECT_DOUBLE_EQ(m.gauge("absent"), 0.0);

    m.add("icache/misses");
    m.add("icache/misses", 4);
    EXPECT_EQ(m.counter("icache/misses"), 5u);

    m.set("rate/refs_per_sec", 2.5);
    m.set("rate/refs_per_sec", 3.5); // last write wins
    m.accumulate("time_ms/total", 1.0);
    m.accumulate("time_ms/total", 2.0);
    EXPECT_DOUBLE_EQ(m.gauge("rate/refs_per_sec"), 3.5);
    EXPECT_DOUBLE_EQ(m.gauge("time_ms/total"), 3.0);

    m.observe("tlb/refills", 7);
    m.observe("tlb/refills", 9);
    EXPECT_EQ(m.histograms().at("tlb/refills").count, 2u);
    EXPECT_FALSE(m.empty());
}

TEST(MetricRegistry, IterationIsInNameOrder)
{
    MetricRegistry m;
    m.add("zeta");
    m.add("alpha");
    m.add("mid/dle");
    std::vector<std::string> names;
    for (const auto &kv : m.counters())
        names.push_back(kv.first);
    EXPECT_EQ(names,
              (std::vector<std::string>{"alpha", "mid/dle", "zeta"}));
}

TEST(MetricRegistry, MergeSumsCountersAndHistograms)
{
    MetricRegistry a, b;
    a.add("hits", 10);
    b.add("hits", 5);
    b.add("only_b", 2);
    a.observe("h", 1);
    b.observe("h", 3);
    b.set("g", 7.0);
    a.merge(b);
    EXPECT_EQ(a.counter("hits"), 15u);
    EXPECT_EQ(a.counter("only_b"), 2u);
    EXPECT_EQ(a.histograms().at("h").count, 2u);
    EXPECT_EQ(a.histograms().at("h").sum, 4u);
    EXPECT_DOUBLE_EQ(a.gauge("g"), 7.0);
}

TEST(MetricRegistry, MergeAddsAccumulatedGaugesAndKeepsSetOnes)
{
    // answerBatch merges every computed question into its batch's
    // registry and oma_serve merges every batch into one: accumulated
    // time gauges must add up across the questions, while a set()
    // gauge such as search/best_cpi keeps the last shard's value.
    MetricRegistry q1, q2;
    q1.accumulate("time_ms/sweep/replay", 1.5);
    q1.accumulate("core_ms/sweep/replay/tlb", 4.0);
    q1.set("search/best_cpi", 1.25);
    q2.accumulate("time_ms/sweep/replay", 2.5);
    q2.accumulate("core_ms/sweep/replay/tlb", 6.0);
    q2.set("search/best_cpi", 1.125);
    MetricRegistry batch;
    batch.merge(q1);
    batch.merge(q2);
    EXPECT_DOUBLE_EQ(batch.gauge("time_ms/sweep/replay"), 4.0);
    EXPECT_DOUBLE_EQ(batch.gauge("core_ms/sweep/replay/tlb"), 10.0);
    EXPECT_DOUBLE_EQ(batch.gauge("search/best_cpi"), 1.125);

    // A merged registry keeps each gauge's kind for the next merge.
    MetricRegistry daemon;
    daemon.merge(batch);
    daemon.merge(batch);
    EXPECT_DOUBLE_EQ(daemon.gauge("time_ms/sweep/replay"), 8.0);
    EXPECT_DOUBLE_EQ(daemon.gauge("search/best_cpi"), 1.125);

    // Span gauges are accumulated ones.
    MetricRegistry a, b, both;
    Span(a, "phase").stop();
    Span(b, "phase").stop();
    both.merge(a);
    both.merge(b);
    EXPECT_DOUBLE_EQ(both.gauge("time_ms/phase"),
                     a.gauge("time_ms/phase") + b.gauge("time_ms/phase"));
    EXPECT_EQ(both.counter("calls/phase"), 2u);
}

TEST(MetricRegistry, ShardMergeIsOrderIndependentForCounters)
{
    // QueryEngine::answerBatch merges per-question registries in
    // group order; for counters and histograms any order must give
    // the same totals, so the schedule cannot leak into the report.
    std::vector<MetricRegistry> shards(4);
    for (std::size_t i = 0; i < shards.size(); ++i) {
        shards[i].add("work/items", i + 1);
        shards[i].observe("work/sizes", 10 * (i + 1));
    }
    MetricRegistry fwd, rev;
    for (std::size_t i = 0; i < shards.size(); ++i)
        fwd.merge(shards[i]);
    for (std::size_t i = shards.size(); i-- > 0;)
        rev.merge(shards[i]);
    EXPECT_EQ(fwd.counter("work/items"), rev.counter("work/items"));
    EXPECT_EQ(fwd.counter("work/items"), 1u + 2u + 3u + 4u);
    EXPECT_EQ(fwd.histograms().at("work/sizes").sum,
              rev.histograms().at("work/sizes").sum);
}

TEST(Span, RecordsTimeAndCallCount)
{
    MetricRegistry m;
    {
        Span span(m, "phase");
        // Trivial body; elapsed may round to 0.0 ms but must not be
        // negative, and the call counter must tick exactly once.
    }
    EXPECT_EQ(m.counter("calls/phase"), 1u);
    EXPECT_EQ(m.gauges().count("time_ms/phase"), 1u);
    EXPECT_GE(m.gauge("time_ms/phase"), 0.0);
}

TEST(Span, StopIsIdempotent)
{
    MetricRegistry m;
    Span span(m, "phase");
    span.stop();
    span.stop(); // second stop must not double-record
    EXPECT_EQ(m.counter("calls/phase"), 1u);
}

TEST(Span, RepeatedSpansAccumulate)
{
    MetricRegistry m;
    for (int i = 0; i < 3; ++i)
        Span(m, "loop").stop();
    EXPECT_EQ(m.counter("calls/loop"), 3u);
}

TEST(Progress, DefaultConstructedSwallowsTicks)
{
    Progress p;
    EXPECT_FALSE(p.enabled());
    p.tick();
    p.tick(100);
    EXPECT_EQ(p.done(), 0u); // disabled: not even counted
}

TEST(Progress, FiresOnStrideBoundariesAndCompletion)
{
    std::vector<std::uint64_t> fired;
    Progress p(100,
               [&fired](std::uint64_t done, std::uint64_t total) {
                   EXPECT_EQ(total, 100u);
                   fired.push_back(done);
               },
               10);
    for (int i = 0; i < 100; ++i)
        p.tick();
    EXPECT_EQ(p.done(), 100u);
    ASSERT_FALSE(fired.empty());
    EXPECT_EQ(fired.front(), 10u);
    EXPECT_EQ(fired.back(), 100u);
    EXPECT_EQ(fired.size(), 10u);
}

TEST(Progress, SmallTotalsStillComplete)
{
    // total < updates: stride clamps to 1, every tick fires and the
    // final tick reports completion.
    std::uint64_t last = 0;
    Progress p(3,
               [&last](std::uint64_t done, std::uint64_t) {
                   last = done;
               },
               10);
    p.tick();
    p.tick();
    p.tick();
    EXPECT_EQ(last, 3u);
}

TEST(Progress, InformSinkDoesNotThrow)
{
    Progress p(2, Progress::informSink("unit-test sweep"), 1);
    p.tick();
    p.tick();
    EXPECT_EQ(p.done(), 2u);
}

} // namespace
} // namespace oma::obs
