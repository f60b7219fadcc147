/**
 * @file
 * Unit tests for the trace subsystem: event-type naming round trips,
 * ECT queries, serialization/parsing round trips (including metadata
 * and panic messages), and classification helpers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/fileio.hh"
#include "base/fmt.hh"
#include "chan/chan.hh"
#include "goker/registry.hh"
#include "perturb/perturb.hh"
#include "runtime/scheduler.hh"
#include "trace/ect.hh"
#include "trace/ect_ring.hh"
#include "trace/recipe.hh"
#include "trace/serialize.hh"
#include "ring_programs.hh"
#include "test_util.hh"

using namespace goat;
using namespace goat::trace;
using goat::test::flushThenPanicProgram;
using goat::test::panicPayloadProgram;
using goat::test::runProgram;
using goat::test::sendRecv60Program;

TEST(TraceEvent, NameRoundTripAllTypes)
{
    for (size_t i = 0; i < static_cast<size_t>(EventType::NumEventTypes);
         ++i) {
        auto t = static_cast<EventType>(i);
        EXPECT_EQ(eventTypeFromName(eventTypeName(t)), t)
            << "type index " << i;
    }
}

TEST(TraceEvent, UnknownNameRejected)
{
    EXPECT_EQ(eventTypeFromName("bogus"), EventType::NumEventTypes);
}

TEST(TraceEvent, BlockClassification)
{
    EXPECT_TRUE(isBlockEvent(EventType::GoBlockSend));
    EXPECT_TRUE(isBlockEvent(EventType::GoBlockRecv));
    EXPECT_TRUE(isBlockEvent(EventType::GoBlockSelect));
    EXPECT_TRUE(isBlockEvent(EventType::GoBlockSync));
    EXPECT_TRUE(isBlockEvent(EventType::GoBlockCond));
    EXPECT_FALSE(isBlockEvent(EventType::GoSched));
    EXPECT_FALSE(isBlockEvent(EventType::ChSend));
}

TEST(TraceEvent, ConcurrencyClassification)
{
    EXPECT_TRUE(isConcurrencyEvent(EventType::ChSend));
    EXPECT_TRUE(isConcurrencyEvent(EventType::CvBroadcast));
    EXPECT_TRUE(isConcurrencyEvent(EventType::MuLock));
    EXPECT_FALSE(isConcurrencyEvent(EventType::GoCreate));
    EXPECT_FALSE(isConcurrencyEvent(EventType::TraceStart));
}

TEST(Ect, MetaStorage)
{
    Ect ect;
    ect.setMeta("seed", "42");
    ect.setMeta("outcome", "ok");
    EXPECT_EQ(ect.meta("seed"), "42");
    EXPECT_EQ(ect.meta("missing"), "");
}

TEST(Ect, EventsOfAndLastEventOf)
{
    Ect ect;
    ect.append(Event(1, 1, EventType::GoCreate, SourceLoc("a.cc", 1)));
    ect.append(Event(2, 2, EventType::GoStart, SourceLoc("a.cc", 1)));
    ect.append(Event(3, 1, EventType::GoSched, SourceLoc("a.cc", 2)));
    ect.append(Event(4, 2, EventType::GoEnd, SourceLoc("a.cc", 1)));
    auto count_of = [&](uint32_t gid) {
        size_t n = 0;
        for (const Event &ev : ect.events())
            n += ev.gid == gid;
        return n;
    };
    EXPECT_EQ(count_of(1), 2u);
    EXPECT_EQ(count_of(2), 2u);
    EXPECT_EQ(ect.lastEventOf(1)->type, EventType::GoSched);
    EXPECT_EQ(ect.lastEventOf(2)->type, EventType::GoEnd);
    EXPECT_EQ(ect.lastEventOf(99), nullptr);
}

TEST(Ect, GoroutineIds)
{
    Ect ect;
    ect.append(Event(1, 3, EventType::GoSched, SourceLoc("a.cc", 1)));
    ect.append(Event(2, 1, EventType::GoSched, SourceLoc("a.cc", 1)));
    ect.append(Event(3, 3, EventType::GoSched, SourceLoc("a.cc", 1)));
    EXPECT_EQ(ect.goroutineIds(), (std::vector<uint32_t>{1, 3}));
}

TEST(Serialize, RoundTripSimpleTrace)
{
    Ect ect;
    ect.setMeta("seed", "7");
    ect.append(Event(1, 0, EventType::TraceStart, SourceLoc("main", 0)));
    ect.append(
        Event(2, 1, EventType::ChSend, SourceLoc("prog.cc", 42), 5, 1, 0, 0));
    ect.append(Event(3, 0, EventType::TraceStop, SourceLoc("main", 0)));

    std::string text = ectToString(ect);
    Ect back;
    ASSERT_TRUE(ectFromString(text, back));
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back.meta("seed"), "7");
    EXPECT_EQ(back.events()[1].type, EventType::ChSend);
    EXPECT_EQ(back.events()[1].loc.basename(), "prog.cc");
    EXPECT_EQ(back.events()[1].loc.line, 42u);
    EXPECT_EQ(back.events()[1].args[0], 5);
    EXPECT_EQ(back.events()[1].args[1], 1);
}

TEST(Serialize, RoundTripPanicMessage)
{
    Ect ect;
    Event ev(1, 2, EventType::GoPanic, SourceLoc("k.cc", 9));
    ect.setStr(ev, "send on closed channel");
    ect.append(ev);
    Ect back;
    ASSERT_TRUE(ectFromString(ectToString(ect), back));
    EXPECT_EQ(back.str(back.events()[0]), "send on closed channel");

    // A copy keeps the string table; clear() drops it.
    Ect copy = back;
    back.clear();
    EXPECT_EQ(copy.str(copy.events()[0]), "send on closed channel");
    EXPECT_EQ(ectToString(copy), ectToString(ect));
    EXPECT_TRUE(back.empty());
    Event fresh(1, 2, EventType::GoPanic, SourceLoc("k.cc", 9));
    EXPECT_EQ(back.str(fresh), "");
    back.setStr(fresh, "other");
    EXPECT_EQ(fresh.strIdx, 1u); // the cleared table restarts at 1
}

TEST(Serialize, RoundTripRealExecution)
{
    auto rr = runProgram([] {
        Chan<int> c(1);
        go([c]() mutable { c.send(3); });
        yield();
        c.recv();
    });
    std::string text = ectToString(rr.ect);
    Ect back;
    ASSERT_TRUE(ectFromString(text, back));
    ASSERT_EQ(back.size(), rr.ect.size());
    for (size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(back.events()[i].type, rr.ect.events()[i].type);
        EXPECT_EQ(back.events()[i].ts, rr.ect.events()[i].ts);
        EXPECT_EQ(back.events()[i].gid, rr.ect.events()[i].gid);
        EXPECT_EQ(back.events()[i].loc.line, rr.ect.events()[i].loc.line);
    }
}

TEST(Serialize, MalformedLineRejected)
{
    Ect back;
    EXPECT_FALSE(ectFromString("1 2 not_a_type x 1 0 0 0 0\n", back));
    EXPECT_FALSE(ectFromString("garbage\n", back));
}

TEST(Serialize, EmptyInputYieldsEmptyTrace)
{
    Ect back;
    EXPECT_TRUE(ectFromString("", back));
    EXPECT_TRUE(back.empty());
}

TEST(Serialize, FileRoundTrip)
{
    Ect ect;
    ect.setMeta("name", "t");
    ect.append(Event(1, 1, EventType::GoEnd, SourceLoc("f.cc", 3)));
    std::string path = testing::TempDir() + "/goat_trace_test.ect";
    ASSERT_TRUE(writeEctFile(ect, path));
    Ect back;
    ASSERT_TRUE(readEctFile(path, back));
    EXPECT_EQ(back.size(), 1u);
    EXPECT_EQ(back.meta("name"), "t");
}

TEST(Serialize, InternStringStableAndShared)
{
    const char *a = internString("hello.cc");
    const char *b = internString("hello.cc");
    EXPECT_EQ(a, b);
    EXPECT_STREQ(a, "hello.cc");
}

TEST(Recorder, CapturesEveryEmittedEvent)
{
    auto rr = runProgram([] {
        Chan<int> c(2);
        c.send(1);
        c.send(2);
        c.recv();
        c.close();
    });
    EXPECT_EQ(goat::test::countEvents(rr.ect, EventType::ChSend), 2u);
    EXPECT_EQ(goat::test::countEvents(rr.ect, EventType::ChRecv), 1u);
    EXPECT_EQ(goat::test::countEvents(rr.ect, EventType::ChClose), 1u);
    EXPECT_EQ(goat::test::countEvents(rr.ect, EventType::ChMake), 1u);
}

// ---------------------------------------------------------------------
// Binary ECT ring (trace/ect_ring.hh): the scheduler's capture path.
// ---------------------------------------------------------------------

TEST(EctRing, WrapFlushesWithoutLosingEvents)
{
    // The mid-run flushes of a 16-row ring must preserve order,
    // payloads, and counts: the trace equals an unwrapped capture.
    auto whole = runProgram(sendRecv60Program, /*seed=*/3);
    auto wrapped = runProgram(sendRecv60Program, /*seed=*/3, 0.0, {}, 16);
    ASSERT_GT(whole.ect.size(), 16u);
    EXPECT_EQ(ectToString(wrapped.ect), ectToString(whole.ect));
}

TEST(EctRing, StringPayloadSurvivesMidRunFlush)
{
    // The panic message is attached after a 16-row ring has flushed
    // several times; it must land in the bound Ect's string table
    // exactly as in an unwrapped capture.
    auto whole = runProgram(flushThenPanicProgram, /*seed=*/3);
    auto wrapped =
        runProgram(flushThenPanicProgram, /*seed=*/3, 0.0, {}, 16);
    ASSERT_GT(whole.ect.size(), 2 * 16u);
    std::string text = ectToString(wrapped.ect);
    EXPECT_EQ(text, ectToString(whole.ect));
    EXPECT_NE(text.find("|send on closed channel"), std::string::npos);
}

TEST(EctRing, FoldTypeCountsMatchesTraceAcrossWrap)
{
    runtime::SchedConfig cfg;
    cfg.seed = 5;
    cfg.noiseProb = 0;
    runtime::Scheduler sched(cfg);
    trace::EctRing ring(16);
    trace::Ect out;
    ring.bind(&out);
    sched.setRing(&ring);
    sched.run([] {
        Chan<int> c(2);
        for (int i = 0; i < 40; ++i) {
            c.send(i);
            c.recv();
        }
    });
    ring.flush(); // leave the ring bound: counts cover all rows
    uint64_t counts[static_cast<size_t>(EventType::NumEventTypes)] = {};
    ring.foldTypeCounts(counts);
    ring.finish();
    for (size_t i = 0;
         i < static_cast<size_t>(EventType::NumEventTypes); ++i) {
        EXPECT_EQ(counts[i],
                  goat::test::countEvents(
                      out, static_cast<EventType>(i)))
            << "type index " << i;
    }
}

TEST(EctRing, CapacityIsFloored)
{
    EXPECT_EQ(EctRing().capacity(), defaultEctRingCapacity());
    EXPECT_EQ(EctRing(1).capacity(), 16u); // floor
    EXPECT_EQ(EctRing(17).capacity(), 17u);
}

// ---------------------------------------------------------------------
// ECT capture golden: the trace every GoKer kernel records at D=2
// (seeds 1-3, the noise and yield policy of engine::runOnce), plus the
// full text of the first two programs in ring_programs.hh. Pins
// the scheduler's capture path byte for byte. Regenerate with
// GOAT_UPDATE_GOLDEN=1 only after an intended change of the trace
// format or of scheduling.
// ---------------------------------------------------------------------

namespace {

std::string
captureDump()
{
    std::string out;
    for (const goker::KernelInfo *k :
         goker::KernelRegistry::instance().all()) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            perturb::YieldPerturber yp(2, seed);
            trace::Ect ect = runProgram(k->fn, seed, 0.02, yp.hook()).ect;
            out += strFormat("%s %llu %zu %016llx\n", k->name.c_str(),
                             static_cast<unsigned long long>(seed),
                             ect.size(),
                             static_cast<unsigned long long>(
                                 trace::ectFingerprint(ect)));
        }
    }
    out += "== panic_payload seed 7 ==\n";
    out += ectToString(runProgram(panicPayloadProgram, 7).ect);
    out += "== send_recv_60 seed 3 ring 16 ==\n";
    out += ectToString(runProgram(sendRecv60Program, 3, 0.0, {}, 16).ect);
    return out;
}

} // namespace

TEST(EctRing, MatchesCaptureGolden)
{
    const std::string path =
        GOAT_SOURCE_DIR "/tests/golden/ect_capture.txt";
    std::string dump = captureDump();
    const char *update = std::getenv("GOAT_UPDATE_GOLDEN");
    if (update && *update) {
        ASSERT_TRUE(atomicWriteFile(path, dump)) << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(dump, golden.str());
}
