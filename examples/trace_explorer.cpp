/**
 * @file
 * Domain scenario: the whole-program tracing workflow. Runs a small
 * client/server request loop under tracing, serializes the execution
 * concurrency trace (ECT) to disk, parses it back (the offline
 * analysis consumes only the file, as in the paper), and prints the
 * reconstructed goroutine tree and interleaving.
 *
 * Build & run:  ./build/examples/trace_explorer
 */

#include <cstdio>
#include <memory>

#include "analysis/deadlock.hh"
#include "analysis/goroutine_tree.hh"
#include "analysis/report.hh"
#include "chan/chan.hh"
#include "chan/select.hh"
#include "goat/engine.hh"
#include "runtime/api.hh"
#include "trace/serialize.hh"

using namespace goat;

namespace {

void
clientServer()
{
    struct Shared
    {
        Chan<int> requests;
        Chan<int> responses;
        Chan<Unit> quit;
        Shared() : requests(0), responses(0), quit(0) {}
    };
    auto sh = std::make_shared<Shared>();

    goNamed("server", [sh] {
        while (true) {
            bool stop = false;
            Select()
                .onRecv<int>(sh->requests,
                             [&](int req, bool) {
                                 sh->responses.send(req + 1000);
                             })
                .onRecv<Unit>(sh->quit, [&](Unit, bool) { stop = true; })
                .run();
            if (stop)
                return;
        }
    });

    for (int i = 0; i < 3; ++i) {
        sh->requests.send(i);
        int resp = sh->responses.recv();
        (void)resp;
    }
    sh->quit.close();
    yield();
}

} // namespace

int
main()
{
    std::printf("== Trace explorer: record, serialize, re-analyze ==\n\n");

    // 1. Record: one engine run (seed 7, no injected yields), traced
    //    through the scheduler's ECT ring.
    engine::SingleRun run = engine::runOnce(clientServer, /*seed=*/7);
    run.ect.setMeta("program", "client_server_example");
    std::printf("execution finished: outcome=%s, %zu trace events\n",
                runtime::runOutcomeName(run.exec.outcome), run.ect.size());

    // 2. Serialize to disk and read back (offline analysis sees only
    //    the file).
    const std::string path = "/tmp/goat_example.ect";
    if (!trace::writeEctFile(run.ect, path)) {
        std::printf("cannot write %s\n", path.c_str());
        return 1;
    }
    trace::Ect ect;
    if (!trace::readEctFile(path, ect)) {
        std::printf("cannot parse %s\n", path.c_str());
        return 1;
    }
    std::printf("round-tripped ECT through %s (%zu events, meta "
                "program=%s)\n\n",
                path.c_str(), ect.size(), ect.meta("program").c_str());

    // 3. Offline analysis.
    analysis::GoroutineTree tree(ect);
    analysis::DeadlockReport dl = analysis::deadlockCheck(tree);
    std::printf("offline verdict: %s\n\n", dl.shortStr().c_str());
    std::printf("-- goroutine tree --\n%s\n",
                analysis::goroutineTreeStr(tree).c_str());
    std::printf("-- executed interleaving (first 40 events) --\n%s",
                analysis::interleavingStr(ect, 40).c_str());
    return 0;
}
