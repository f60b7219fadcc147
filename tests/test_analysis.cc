/**
 * @file
 * Unit tests for the offline analysis: goroutine-tree construction,
 * application-level filtering, Procedure 1 (DeadlockCheck) on passing /
 * leaking / globally deadlocked / crashed executions, and report
 * rendering.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/deadlock.hh"
#include "analysis/goroutine_tree.hh"
#include "analysis/html_report.hh"
#include "analysis/report.hh"
#include "chan/chan.hh"
#include "sync/sync.hh"
#include "test_util.hh"
#include "trace/serialize.hh"

using namespace goat;
using namespace goat::analysis;
using goat::test::runProgram;

TEST(GoroutineTree, SingleGoroutineProgram)
{
    auto rr = runProgram([] {});
    GoroutineTree tree(rr.ect);
    ASSERT_NE(tree.root(), nullptr);
    EXPECT_EQ(tree.root()->gid, 1u);
    EXPECT_TRUE(tree.root()->appLevel);
    EXPECT_TRUE(tree.root()->children.empty());
}

TEST(GoroutineTree, ParentChildEdges)
{
    auto rr = runProgram([] {
        go([] {
            go([] {});
            yield();
        });
        go([] {});
        for (int i = 0; i < 5; ++i)
            yield();
    });
    GoroutineTree tree(rr.ect);
    const GoroutineNode *root = tree.root();
    ASSERT_NE(root, nullptr);
    ASSERT_EQ(root->children.size(), 2u);
    EXPECT_EQ(root->children[0]->gid, 2u);
    EXPECT_EQ(root->children[1]->gid, 3u);
    // G2 spawned G4.
    ASSERT_EQ(root->children[0]->children.size(), 1u);
    EXPECT_EQ(root->children[0]->children[0]->gid, 4u);
}

TEST(GoroutineTree, AppNodesBfsOrder)
{
    auto rr = runProgram([] {
        go([] {
            go([] {});
            yield();
        });
        go([] {});
        for (int i = 0; i < 5; ++i)
            yield();
    });
    GoroutineTree tree(rr.ect);
    auto nodes = tree.appNodes();
    ASSERT_EQ(nodes.size(), 4u);
    EXPECT_EQ(nodes[0]->gid, 1u); // BFS: main, G2, G3, G4
    EXPECT_EQ(nodes[1]->gid, 2u);
    EXPECT_EQ(nodes[2]->gid, 3u);
    EXPECT_EQ(nodes[3]->gid, 4u);
}

TEST(GoroutineTree, CreationCycleTerminates)
{
    // A malformed trace in which two goroutines create each other: the
    // classification visits each node once instead of looping.
    trace::Ect ect;
    ASSERT_TRUE(trace::ectFromString("1 1 go_create f.go 1 2 0 0 0\n"
                                     "2 2 go_create f.go 2 1 0 0 0\n",
                                     ect));
    GoroutineTree tree(ect);
    const auto &nodes = tree.appNodes();
    ASSERT_EQ(nodes.size(), 2u);
    EXPECT_EQ(nodes[0]->gid, 1u);
    EXPECT_EQ(nodes[1]->gid, 2u);
}

TEST(GoroutineTree, EventsAttributedToGoroutines)
{
    auto rr = runProgram([] {
        Chan<int> c(1);
        go([c]() mutable { c.send(1); });
        yield();
        c.recv();
    });
    GoroutineTree tree(rr.ect);
    const auto *child = tree.node(2);
    ASSERT_NE(child, nullptr);
    bool child_sent = false;
    for (const auto &ev : rr.ect.events())
        if (ev.gid == 2 && ev.type == trace::EventType::ChSend)
            child_sent = true;
    EXPECT_TRUE(child_sent);
    // The tree keeps each node's final event for the analyses.
    ASSERT_NE(child->lastEvent(), nullptr);
    EXPECT_EQ(child->lastEvent()->gid, 2u);
}

TEST(DeadlockCheck, PassOnCleanExecution)
{
    auto rr = runProgram([] {
        Chan<int> c;
        go([c]() mutable { c.send(3); });
        c.recv();
        yield();
    });
    GoroutineTree tree(rr.ect);
    DeadlockReport report = deadlockCheck(tree);
    EXPECT_EQ(report.verdict, Verdict::Pass);
    EXPECT_FALSE(report.buggy());
    EXPECT_EQ(report.shortStr(), "PASS");
}

TEST(DeadlockCheck, PartialDeadlockOnLeakedChild)
{
    auto rr = runProgram([] {
        Chan<int> c;
        go([c]() mutable { c.send(1); }); // never received
        yield();
    });
    GoroutineTree tree(rr.ect);
    DeadlockReport report = deadlockCheck(tree);
    EXPECT_EQ(report.verdict, Verdict::PartialDeadlock);
    ASSERT_EQ(report.leaked.size(), 1u);
    EXPECT_EQ(report.leaked[0], 2u);
    EXPECT_EQ(report.shortStr(), "PDL-1");
}

TEST(DeadlockCheck, CountsAllLeakedGoroutines)
{
    auto rr = runProgram([] {
        Chan<int> c;
        for (int i = 0; i < 3; ++i)
            go([c]() mutable { c.recv(); });
        yield();
    });
    GoroutineTree tree(rr.ect);
    DeadlockReport report = deadlockCheck(tree);
    EXPECT_EQ(report.verdict, Verdict::PartialDeadlock);
    EXPECT_EQ(report.leaked.size(), 3u);
}

TEST(DeadlockCheck, GlobalDeadlockWhenMainBlocked)
{
    auto rr = runProgram([] {
        Chan<int> c;
        c.recv(); // nothing will ever send
    });
    GoroutineTree tree(rr.ect);
    DeadlockReport report = deadlockCheck(tree);
    EXPECT_EQ(report.verdict, Verdict::GlobalDeadlock);
    EXPECT_EQ(report.shortStr(), "GDL");
}

TEST(DeadlockCheck, CrashVerdictOnPanic)
{
    auto rr = runProgram([] {
        Chan<int> c;
        c.close();
        c.send(1);
    });
    GoroutineTree tree(rr.ect);
    DeadlockReport report = deadlockCheck(tree);
    EXPECT_EQ(report.verdict, Verdict::Crash);
    EXPECT_EQ(report.panicMsg, "send on closed channel");
    EXPECT_EQ(report.shortStr(), "CRASH");
}

TEST(DeadlockCheck, MixedDeadlockFromListing1Pattern)
{
    // The moby_28462 structure forced into its buggy interleaving
    // deterministically: StatusChange takes the lock first, then
    // Monitor blocks on it while StatusChange blocks on the send.
    auto rr = runProgram([] {
        struct C
        {
            gosync::Mutex mu;
            Chan<int> status;
            C() : status(0) {}
        };
        auto c = std::make_shared<C>();
        goNamed("StatusChange", [c] {
            c->mu.lock();
            c->status.send(1);
            c->mu.unlock();
        });
        goNamed("Monitor", [c] {
            c->mu.lock();
            c->mu.unlock();
        });
        sleepMs(5);
    });
    GoroutineTree tree(rr.ect);
    DeadlockReport report = deadlockCheck(tree);
    EXPECT_EQ(report.verdict, Verdict::PartialDeadlock);
    EXPECT_EQ(report.leaked.size(), 2u);
}

TEST(Report, GoroutineTreeShowsLeaks)
{
    auto rr = runProgram([] {
        Chan<int> c;
        goNamed("stuck", [c]() mutable { c.recv(); });
        yield();
    });
    GoroutineTree tree(rr.ect);
    std::string s = goroutineTreeStr(tree);
    EXPECT_NE(s.find("G1"), std::string::npos);
    EXPECT_NE(s.find("LEAKED"), std::string::npos);
}

TEST(Report, InterleavingListsConcurrencyEvents)
{
    auto rr = runProgram([] {
        Chan<int> c(1);
        c.send(1);
        c.recv();
    });
    std::string s = interleavingStr(rr.ect);
    EXPECT_NE(s.find("ch_send"), std::string::npos);
    EXPECT_NE(s.find("ch_recv"), std::string::npos);
}

TEST(Report, DeadlockReportContainsVerdictAndTree)
{
    auto rr = runProgram([] {
        Chan<int> c;
        go([c]() mutable { c.recv(); });
        yield();
    });
    GoroutineTree tree(rr.ect);
    DeadlockReport report = deadlockCheck(tree);
    std::string s = deadlockReportStr(rr.ect, tree, report);
    EXPECT_NE(s.find("partial_deadlock"), std::string::npos);
    EXPECT_NE(s.find("goroutine tree"), std::string::npos);
    EXPECT_NE(s.find("leaked: G2"), std::string::npos);
}

TEST(Report, InterleavingTruncates)
{
    auto rr = runProgram([] {
        Chan<int> c(1);
        for (int i = 0; i < 50; ++i) {
            c.send(1);
            c.recv();
        }
    });
    std::string s = interleavingStr(rr.ect, 10);
    EXPECT_NE(s.find("truncated"), std::string::npos);
}

// A parsed trace may name a creation cycle: here goroutine 1 creates
// itself, and in the second trace 1 and 2 create each other. Both
// renders visit each goroutine once instead of recursing without end.
TEST(Report, TreeRendersSurviveCreationCycles)
{
    for (const char *text :
         {"1 1 go_create a.go 2 1 0 0 0\n2 1 go_end a.go 3 0 0 0 0\n",
          "1 1 go_create a.go 2 2 0 0 0\n2 2 go_create a.go 3 1 0 0 0\n"
          "3 2 go_end a.go 4 0 0 0 0\n"}) {
        SCOPED_TRACE(text);
        std::istringstream in(text);
        trace::Ect ect;
        ASSERT_TRUE(trace::readEct(in, ect));
        GoroutineTree tree(ect);
        ASSERT_NE(tree.root(), nullptr);
        const size_t gids = tree.nodes().size();

        const std::string s = goroutineTreeStr(tree);
        size_t lines = 0;
        for (char c : s)
            lines += c == '\n';
        EXPECT_EQ(lines, gids) << s;
        EXPECT_EQ(s.find("G1 "), s.rfind("G1 ")) << s;

        DeadlockReport dl = deadlockCheck(tree);
        const std::string html = htmlReportStr("cycle", ect, tree, dl);
        for (const GoroutineNode &n : tree.nodes()) {
            const std::string tag =
                "\">G" + std::to_string(n.gid) + "</span>";
            EXPECT_NE(html.find(tag), std::string::npos) << tag;
            EXPECT_EQ(html.find(tag), html.rfind(tag)) << tag;
        }
    }
}
