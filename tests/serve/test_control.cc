/**
 * @file
 * ControlServer tests. The line protocol is exercised through
 * handleLine() — the exact code path the socket loop runs. The
 * ControlServerSocket tests run the socket loop itself on a thread,
 * against clients that misbehave at the connection level; CI's
 * serve-smoke steps cover a well-behaved client end to end.
 */

#include "serve/control.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "serve/daemon.h"
#include "sim/results.h"

namespace gaia::serve {
namespace {

std::unique_ptr<ServeDaemon>
startSmallDaemon()
{
    TraceBuildOptions options;
    options.job_count = 60;
    options.span = kSecondsPerDay;
    options.seed = 1;

    ScenarioSpec spec;
    spec.workload =
        WorkloadSpec::builtin(WorkloadSource::AzureVm, options);
    spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        24 * 13, 1);
    ServeConfig config;
    config.scenario = spec;
    config.accel = 0.0;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    GAIA_ASSERT(daemon.isOk(), "daemon start failed: ",
                daemon.status().message());
    return std::move(daemon).value();
}

TEST(ControlServer, SubmitStatsAndDrainRoundTrip)
{
    std::unique_ptr<ServeDaemon> daemon = startSmallDaemon();
    ControlServer server(*daemon, "/unused.sock");

    std::string reply;
    EXPECT_FALSE(
        server.handleLine("submit 1 100 3600 1", reply));
    EXPECT_EQ(reply, "ok");

    EXPECT_FALSE(server.handleLine("stats", reply));
    EXPECT_EQ(reply.front(), '{');
    EXPECT_EQ(reply.back(), '}');
    EXPECT_NE(reply.find("\"accepted\":1"), std::string::npos);

    EXPECT_TRUE(server.handleLine("drain", reply));
    ASSERT_EQ(reply.rfind("drained ", 0), 0u) << reply;
    EXPECT_EQ(reply.size(), std::string("drained ").size() + 16)
        << "fingerprint must be 16 hex digits: " << reply;

    ASSERT_TRUE(server.drained().isOk());
    EXPECT_EQ(server.drained()->outcomes.size(), 1u);
}

TEST(ControlServer, MalformedAndUnknownLinesAreCleanErrors)
{
    std::unique_ptr<ServeDaemon> daemon = startSmallDaemon();
    ControlServer server(*daemon, "/unused.sock");

    std::string reply;
    EXPECT_FALSE(server.handleLine("submit 1 100", reply));
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;

    EXPECT_FALSE(server.handleLine("submit 1 100 -5 1", reply));
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;

    // Longer than kMaxInputDuration: refused before it reaches the
    // engine, whose drain would otherwise hang integrating it past
    // the carbon trace's end.
    EXPECT_FALSE(
        server.handleLine("submit 2 3600 100000000000000 1", reply));
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;

    // More cores than kMaxJobCpus: cpus x width could overflow an int
    // in the engine's accounting.
    EXPECT_FALSE(server.handleLine("submit 5 0 60 1048577", reply));
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;
    EXPECT_NE(reply.find("past the 1048576 limit"), std::string::npos)
        << reply;

    EXPECT_FALSE(
        server.handleLine("submit 999999 0 60 1 junk trailing", reply));
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;

    EXPECT_FALSE(server.handleLine("submit 3 0 60 1x", reply));
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;

    EXPECT_FALSE(server.handleLine("submit 4 0 60 1 \t ", reply));
    EXPECT_EQ(reply, "ok") << "trailing whitespace is not a token";

    EXPECT_FALSE(server.handleLine("frobnicate", reply));
    EXPECT_EQ(reply.rfind("err unknown command", 0), 0u) << reply;

    reply = "stale";
    EXPECT_FALSE(server.handleLine("", reply));
    EXPECT_EQ(reply, "stale") << "blank lines draw no reply";

    // stats and drain take no arguments, as submit takes no fifth.
    EXPECT_FALSE(server.handleLine("stats extra", reply));
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;
    EXPECT_FALSE(server.handleLine("drain now", reply));
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;

    // The daemon is still healthy after every bad line.
    EXPECT_FALSE(server.handleLine("submit 2 200 600 1", reply));
    EXPECT_EQ(reply, "ok");
    EXPECT_TRUE(server.handleLine("drain", reply));
    EXPECT_EQ(reply.rfind("drained ", 0), 0u) << reply;
    ASSERT_TRUE(server.drained().isOk());
    EXPECT_EQ(server.drained()->outcomes.size(), 2u);
}

/** A socket path in the test temp directory, unique per process. */
std::string
socketPath(const std::string &tag)
{
    return ::testing::TempDir() + "gaia_control_" +
           std::to_string(::getpid()) + "_" + tag + ".sock";
}

/**
 * Connect to the server at `path`, retrying for about five seconds
 * while it starts listening; -1 if it never does. Reads on the
 * returned socket time out after five seconds, so a server that
 * never answers fails a test instead of hanging it.
 */
int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    for (int attempt = 0; attempt < 500; ++attempt) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) == 0) {
            const timeval timeout{5, 0};
            ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof timeout);
            return fd;
        }
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
}

/** Send `text`; false if the server closed the connection first. */
bool
sendAll(int fd, const std::string &text)
{
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n = ::send(fd, text.data() + off,
                                 text.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Everything received until the server closes the connection (or
 *  stays silent for the read timeout). */
std::string
readUntilClosed(int fd)
{
    std::string received;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) > 0)
        received.append(buf, static_cast<std::size_t>(n));
    return received;
}

/** ControlServer::run() on its own thread. drain() stops it; the
 *  destructor drains a server a failed assertion left running. */
class ServingThread
{
  public:
    ServingThread(ServeDaemon &daemon, std::string path)
        : path_(std::move(path)), server_(daemon, path_),
          thread_([this] { served_ = server_.run(); })
    {
    }

    ServingThread(const ServingThread &) = delete;
    ServingThread &operator=(const ServingThread &) = delete;

    ~ServingThread()
    {
        if (thread_.joinable())
            drain();
    }

    const std::string &path() const { return path_; }

    /** Send `drain` on a new connection, wait for run() to return,
     *  and return everything the server replied. */
    std::string
    drain()
    {
        std::string reply;
        const int fd = connectTo(path_);
        if (fd >= 0) {
            sendAll(fd, "drain\n");
            reply = readUntilClosed(fd);
            ::close(fd);
        }
        thread_.join();
        return reply;
    }

    /** run()'s return value, once drain() has returned. */
    const Result<SimulationResult> &served() const { return served_; }

  private:
    std::string path_;
    ControlServer server_;
    Result<SimulationResult> served_ =
        Status::failedPrecondition("server still running");
    std::thread thread_;
};

std::string
drainedLine(const SimulationResult &result)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      resultFingerprint(result)));
    return std::string("drained ") + hex + "\n";
}

TEST(ControlServerSocket, ClientsThatCloseWithoutReadingAreHarmless)
{
    std::unique_ptr<ServeDaemon> daemon = startSmallDaemon();
    ServingThread serving(*daemon, socketPath("unread"));

    std::string stats;
    for (int i = 0; i < 50; ++i)
        stats += "stats\n";
    // Connections are served one at a time, so while the server
    // waits on a gate connection, each client of the batch behind it
    // sends its lines and closes before the server reads them: every
    // reply goes to a peer that has already gone.
    for (int batch = 0; batch < 4; ++batch) {
        const int gate = connectTo(serving.path());
        ASSERT_GE(gate, 0);
        for (int client = 0; client < 5; ++client) {
            const int fd = connectTo(serving.path());
            ASSERT_GE(fd, 0);
            EXPECT_TRUE(sendAll(fd, stats));
            ::close(fd);
        }
        ::close(gate);
    }

    const std::string reply = serving.drain();
    ASSERT_TRUE(serving.served().isOk())
        << serving.served().status().message();
    EXPECT_EQ(reply, drainedLine(*serving.served()));
}

TEST(ControlServerSocket, OverlongLineIsRefusedAndTheServerStaysUp)
{
    std::unique_ptr<ServeDaemon> daemon = startSmallDaemon();
    ServingThread serving(*daemon, socketPath("overlong"));

    const int fd = connectTo(serving.path());
    ASSERT_GE(fd, 0);
    // 1 MiB and no newline; the server hangs up long before the end,
    // so the send stops early.
    sendAll(fd, std::string(std::size_t{1} << 20, 'x'));
    EXPECT_EQ(readUntilClosed(fd), "err line too long\n");
    ::close(fd);

    const std::string reply = serving.drain();
    ASSERT_TRUE(serving.served().isOk())
        << serving.served().status().message();
    EXPECT_EQ(reply, drainedLine(*serving.served()));
}

TEST(ControlServerSocket, QuitAmidWhitespaceClosesTheConnection)
{
    std::unique_ptr<ServeDaemon> daemon = startSmallDaemon();
    ServingThread serving(*daemon, socketPath("quit"));

    for (const char *line : {"quit \n", " quit\n", "\tquit \r\n"}) {
        const int fd = connectTo(serving.path());
        ASSERT_GE(fd, 0);
        EXPECT_TRUE(sendAll(fd, line));
        EXPECT_EQ(readUntilClosed(fd), "")
            << "answered '" << line << "' instead of closing";
        ::close(fd);
    }

    const std::string reply = serving.drain();
    ASSERT_TRUE(serving.served().isOk())
        << serving.served().status().message();
    EXPECT_EQ(reply, drainedLine(*serving.served()));
}

} // namespace
} // namespace gaia::serve
