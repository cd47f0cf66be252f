/**
 * @file
 * Line-protocol control socket of gaia_serve.
 *
 * A deliberately small text protocol over an AF_UNIX stream socket
 * — scriptable with a five-line Python client or `nc -U`, no
 * dependency beyond POSIX sockets. One command per line:
 *
 *     submit <id> <submit> <length> <cpus>   -> ok | err <message>
 *     stats                                  -> one-line JSON
 *     drain                                  -> drained <fp-hex>
 *     quit                                   -> closes connection
 *
 * `submit` offers a job to the daemon: a job validateJob() rejects
 * and backpressure surface as `err` lines, and so does anything
 * after its four fields. A job already behind the simulated clock
 * answers `ok` and is counted in the `rejected_late` stat. `stats`,
 * `drain` and `quit` take no arguments: anything but whitespace
 * after them is an `err` line and nothing else happens. `drain`
 * ends the stream, closes the books, answers with the result
 * fingerprint, and shuts the server down.
 * Connections are served sequentially — the control plane is for
 * streaming and inspection, not a high-fan-in RPC system (the
 * lock-free path is ServeDaemon::submit for in-process producers).
 *
 * A client may close without reading its replies; the server drops
 * them and serves the next connection. A connection that buffers
 * more than 4096 bytes without a newline gets `err line too long`
 * and is closed.
 */

#ifndef GAIA_SERVE_CONTROL_H
#define GAIA_SERVE_CONTROL_H

#include <string>

#include "serve/daemon.h"

namespace gaia::serve {

/** Blocking control-socket server; see the file comment. */
class ControlServer
{
  public:
    /** Serve `daemon` on the AF_UNIX socket at `socket_path`
     *  (an existing file at that path is replaced). */
    ControlServer(ServeDaemon &daemon, std::string socket_path);

    /**
     * Bind, listen, and serve connections until a client drains the
     * daemon; returns the drained SimulationResult (or the socket /
     * drain error). Call once, from the main thread.
     */
    Result<SimulationResult> run();

    /** Handle one already-parsed command line, setting `reply` to
     *  the protocol reply (without trailing newline); blank lines
     *  and `quit` leave it untouched. Returns true when the command
     *  was `drain` (serving should stop). Exposed for protocol
     *  tests; run() is a socket loop around the same handler. */
    bool handleLine(const std::string &line, std::string &reply);

    /** The drained result after handleLine() saw `drain`. */
    Result<SimulationResult> &drained() { return drained_; }

  private:
    /** What a handled line asks of the connection that sent it. */
    enum class Next
    {
        Serve, ///< keep reading this connection
        Close, ///< `quit`: close this connection
        Stop,  ///< `drain`: close it and stop serving
    };

    /** handleLine(), reporting `quit` as well as `drain`. */
    Next handle(const std::string &line, std::string &reply);

    ServeDaemon &daemon_;
    std::string socket_path_;
    /** Holds an error until handleLine() sees `drain`. */
    Result<SimulationResult> drained_ =
        Status::failedPrecondition("daemon was never drained");
};

} // namespace gaia::serve

#endif // GAIA_SERVE_CONTROL_H
