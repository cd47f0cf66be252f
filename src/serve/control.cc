#include "serve/control.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "sim/results.h"

namespace gaia::serve {

namespace {

/** Longest unterminated line a connection may buffer. Every valid
 *  command is under 100 bytes, so a longer tail is a client that is
 *  not speaking the protocol; its connection is closed. */
constexpr std::size_t kMaxLineBytes = 4096;

/** Write all of `text` to `fd`, riding out short writes. A client
 *  that closed without reading its replies fails the send with
 *  EPIPE rather than raising SIGPIPE, which would kill the daemon. */
void
writeAll(int fd, const std::string &text)
{
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n = ::send(fd, text.data() + off,
                                 text.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return; // client went away; nothing to recover
        off += static_cast<std::size_t>(n);
    }
}

} // namespace

ControlServer::ControlServer(ServeDaemon &daemon,
                             std::string socket_path)
    : daemon_(daemon), socket_path_(std::move(socket_path))
{
}

bool
ControlServer::handleLine(const std::string &line, std::string &reply)
{
    return handle(line, reply) == Next::Stop;
}

ControlServer::Next
ControlServer::handle(const std::string &line, std::string &reply)
{
    std::istringstream in(line);
    std::string command;
    in >> command;

    if (command.empty())
        return Next::Serve; // blank line: no reply

    if (command == "submit") {
        Job job;
        std::string extra;
        if (!(in >> job.id >> job.submit >> job.length >>
              job.cpus) ||
            in >> extra) {
            reply = "err submit needs: <id> <submit> <length> "
                    "<cpus>";
            return Next::Serve;
        }
        const Status submitted = daemon_.submit(job);
        reply = submitted.isOk()
                    ? "ok"
                    : "err " + submitted.message();
        return Next::Serve;
    }

    // The other commands take no arguments.
    const bool known =
        command == "stats" || command == "drain" || command == "quit";
    if (std::string extra; known && in >> extra) {
        reply = "err " + command + " takes no arguments";
        return Next::Serve;
    }

    if (command == "quit")
        return Next::Close;

    if (command == "stats") {
        const ServeStats s = daemon_.stats();
        std::ostringstream out;
        out << "{\"accepted\":" << s.accepted
            << ",\"rejected_full\":" << s.rejected_full
            << ",\"rejected_late\":" << s.rejected_late
            << ",\"released\":" << s.released
            << ",\"completed\":" << s.completed
            << ",\"sim_now\":" << s.sim_now
            << ",\"queue_depth\":" << s.queue_depth
            << ",\"queue_capacity\":" << s.queue_capacity << "}";
        reply = out.str();
        return Next::Serve;
    }

    if (command == "drain") {
        drained_ = daemon_.drain();
        reply = drained_.isOk()
                    ? "drained " +
                          fingerprintHex(resultFingerprint(*drained_))
                    : "err " + drained_.status().message();
        return Next::Stop;
    }

    reply = "err unknown command \"" + command +
            "\" (submit/stats/drain/quit)";
    return Next::Serve;
}

Result<SimulationResult>
ControlServer::run()
{
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    GAIA_REQUIRE(listener >= 0, "control socket: socket() failed: ",
                 std::strerror(errno));

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path_.size() >= sizeof addr.sun_path) {
        ::close(listener);
        return Status::invalidArgument(
            "control socket path is too long (",
            socket_path_.size(), " bytes, limit ",
            sizeof addr.sun_path - 1, "): ", socket_path_);
    }
    std::memcpy(addr.sun_path, socket_path_.c_str(),
                socket_path_.size() + 1);

    ::unlink(socket_path_.c_str()); // replace a stale socket file
    if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listener, 8) != 0) {
        const std::string detail = std::strerror(errno);
        ::close(listener);
        return Status::invalidArgument(
            "control socket: cannot listen on ", socket_path_, ": ",
            detail);
    }

    bool drained = false;
    while (!drained) {
        const int conn = ::accept(listener, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR)
                continue;
            ::close(listener);
            ::unlink(socket_path_.c_str());
            return Status::invalidArgument(
                "control socket: accept() failed: ",
                std::strerror(errno));
        }

        std::string pending;
        char buf[4096];
        bool open = true;
        while (open) {
            const ssize_t n = ::read(conn, buf, sizeof buf);
            if (n <= 0)
                break; // EOF or error: next connection
            pending.append(buf, static_cast<std::size_t>(n));

            std::size_t nl;
            while (open &&
                   (nl = pending.find('\n')) != std::string::npos) {
                std::string line = pending.substr(0, nl);
                pending.erase(0, nl + 1);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();

                std::string reply;
                const Next next = handle(line, reply);
                if (!reply.empty())
                    writeAll(conn, reply + "\n");
                drained = next == Next::Stop;
                open = next == Next::Serve;
            }
            if (open && pending.size() > kMaxLineBytes) {
                writeAll(conn, "err line too long\n");
                open = false;
            }
        }
        ::close(conn);
    }

    ::close(listener);
    ::unlink(socket_path_.c_str());
    return std::move(drained_);
}

} // namespace gaia::serve
