/**
 * @file
 * The programs of the ECT ring tests. tests/golden/ect_capture.txt
 * holds the full traces of the first two, which name this file's line
 * numbers: add programs at the bottom, or regenerate the golden.
 */

#ifndef GOAT_TESTS_RING_PROGRAMS_HH
#define GOAT_TESTS_RING_PROGRAMS_HH

#include "chan/chan.hh"
#include "runtime/api.hh"

namespace goat::test {

/**
 * Mixed channel/goroutine traffic plus a panic, so the rare
 * string payloads are exercised too.
 */
inline void
panicPayloadProgram()
{
    Chan<int> c(1);
    go([c]() mutable { c.send(1); });
    yield();
    c.recv();
    Chan<int> closed;
    closed.close();
    closed.send(9); // panics: string-carrying event
}

/** 60 sends+recvs: far more rows than a 16-row ring holds. */
inline void
sendRecv60Program()
{
    Chan<int> c(1);
    for (int i = 0; i < 60; ++i) {
        c.send(i);
        c.recv();
    }
}

/**
 * 20 sends+recvs, then a send on a closed channel: under a 16-row ring
 * the panic's string payload is attached after mid-run flushes.
 */
inline void
flushThenPanicProgram()
{
    Chan<int> c(1);
    for (int i = 0; i < 20; ++i) {
        c.send(i);
        c.recv();
    }
    c.close();
    c.send(0); // panics: string-carrying event
}

} // namespace goat::test

#endif // GOAT_TESTS_RING_PROGRAMS_HH
