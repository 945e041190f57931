// ctkd-fanout: four closed-loop CI agents grading through one ctkd.
//
// The load generator spawns ctkd (no store root, --max-entries below the
// number of request shapes, so evicted entries come back cold) and opens
// one connection per client. Each client sends its next request only
// after the previous reply's Done frame. All clients walk one shared,
// seeded shape sequence, so they usually ask for the same shape at about
// the same time — the fan-out that follows a KB change. Requests use the
// `ctkgrade --kb --connect` defaults except jobs 1 (per-fault engine,
// which the daemon's shard chunks also use).
//
// Latency runs from sending a request to its Done frame, the first
// verdict from sending to the first Verdict frame. Every reply's CSV is
// compared with an offline grade of its shape. Peak RSS is the daemon's.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <thread>

#include "core/grading.hpp"
#include "inputs.hpp"
#include "report/report.hpp"
#include "service/client.hpp"
#include "workload.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace core = ctk::core;
namespace service = ctk::service;

/// A spawned ctkd. The destructor kills and reaps a daemon that was not
/// stopped cleanly, so no path leaves it running.
class Daemon {
public:
    Daemon(const std::string& binary, const std::vector<std::string>& args,
           const std::string& log_path) {
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
        posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        std::vector<char*> argv;
        argv.push_back(const_cast<char*>(binary.c_str()));
        for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid_ = -1;
            throw ctk::Error("cannot start " + binary + ": " + std::strerror(rc));
        }
    }
    ~Daemon() {
        if (pid_ <= 0) return;
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Wait for the daemon to exit; returns its peak RSS in MiB. Throws
    /// when it exits unsuccessfully.
    double wait() {
        int status = 0;
        rusage usage{};
        if (wait4(pid_, &status, 0, &usage) != pid_)
            throw ctk::Error("wait4 on ctkd failed");
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw ctk::Error("ctkd exited with status " + std::to_string(status));
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
    }

private:
    pid_t pid_ = -1;
};

/// Connect and handshake, retrying while the daemon is still starting.
std::unique_ptr<service::DaemonClient> handshake(const std::string& socket) {
    const auto give_up = Clock::now() + std::chrono::seconds(20);
    while (true) {
        try {
            return std::make_unique<service::DaemonClient>(socket);
        } catch (const service::DaemonError&) {
            throw;
        } catch (const ctk::Error&) {
            if (Clock::now() > give_up) throw;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }
}

/// What one request observed on the wire.
struct Reply {
    core::CoverageMatrix matrix;
    service::DoneMsg done;
    std::size_t verdicts = 0;
    Clock::time_point first_verdict{};
};

/// Send one request and consume its stream, timestamping the first
/// Verdict frame. DaemonClient::grade hides frame arrival times, so the
/// load generator speaks the protocol itself.
Reply request(service::Socket& socket, const service::GradeRequestMsg& req) {
    service::write_frame(socket, service::FrameType::GradeRequest,
                         service::encode(req));
    Reply reply;
    while (true) {
        const auto frame = service::read_frame(socket, 30'000, {});
        if (!frame) throw service::ProtoError("daemon closed the connection");
        switch (frame->type) {
        case service::FrameType::GroupBegin: {
            const auto msg = service::decode_group_begin(frame->payload);
            core::CoverageGroup group;
            group.name = msg.name;
            group.status = msg.status;
            group.setup_error = msg.setup_error != 0;
            group.setup_message = msg.setup_message;
            group.entries.resize(static_cast<std::size_t>(msg.fault_count));
            reply.matrix.groups.push_back(std::move(group));
            break;
        }
        case service::FrameType::Verdict: {
            if (reply.verdicts++ == 0) reply.first_verdict = Clock::now();
            const auto msg = service::decode_verdict(frame->payload);
            reply.matrix.groups.at(msg.family_index)
                .entries.at(static_cast<std::size_t>(msg.fault_index)) = msg.entry;
            break;
        }
        case service::FrameType::Progress:
            break;
        case service::FrameType::Done:
            reply.done = service::decode_done(frame->payload);
            return reply;
        case service::FrameType::Error: {
            const auto err = service::decode_error(frame->payload);
            throw service::DaemonError(err.code, err.message);
        }
        default:
            throw service::ProtoError(std::string("unexpected frame ") +
                                      service::frame_type_name(frame->type));
        }
    }
}

service::GradeRequestMsg request_for(const Shape& shape) {
    service::GradeRequestMsg req; // ctkgrade --kb --connect defaults
    req.families = shape.families;
    req.universe = shape.scaled ? 1 : 0;
    req.jobs = 1;
    return req;
}

/// One client's share of the run.
struct ClientLog {
    std::vector<OpRecord> ops;
    std::vector<double> server_wall_ms;
    std::size_t cold = 0;
    std::size_t pair_misses = 0;
    std::vector<std::string> failures;
};

/// Counters from ctkd's exit line ("served N request(s) — H plan-cache
/// hit(s), M miss(es), B busy-rejected, ...; evicted E entry(ies)").
void parse_exit_line(const std::string& log, RunReport& report) {
    const std::regex served(
        R"((\d+) plan-cache hit\(s\), (\d+) miss\(es\), (\d+) busy-rejected)");
    const std::regex evicted(R"(evicted (\d+) entry)");
    std::smatch m;
    if (!std::regex_search(log, m, served))
        throw ctk::Error("ctkd printed no stats line");
    report.layer_totals["service.cache_hits"] = std::stod(m[1]);
    report.layer_totals["service.cache_misses"] = std::stod(m[2]);
    report.layer_totals["service.busy_rejected"] = std::stod(m[3]);
    report.layer_totals["service.evictions"] =
        std::regex_search(log, m, evicted) ? std::stod(m[1]) : 0.0;
}

/// Joins every started client thread, on exception paths too (a thread
/// that fails to start must not leave its siblings unjoined).
class Joiner {
public:
    explicit Joiner(std::vector<std::thread>& threads) : threads_(threads) {}
    ~Joiner() { join(); }
    Joiner(const Joiner&) = delete;
    Joiner& operator=(const Joiner&) = delete;

    void join() {
        for (auto& t : threads_)
            if (t.joinable()) t.join();
    }

private:
    std::vector<std::thread>& threads_;
};

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace

References fanout_reference(std::uint64_t seed, unsigned jobs) {
    const auto in = make_fanout_inputs(seed);
    References refs;
    for (std::size_t i = 0; i < in.shapes.size(); ++i) {
        core::GradingOptions options;
        options.jobs = jobs;
        options.universe = in.shapes[i].scaled ? ctk::sim::UniverseOptions::scaled()
                                               : ctk::sim::UniverseOptions::base();
        const auto result = core::grade_kb(options, in.shapes[i].families);
        refs[std::to_string(i)] =
            digest(ctk::report::coverage_to_csv(result.to_coverage()));
    }
    return refs;
}

RunReport fanout_run(const RunConfig& config, const References& refs,
                     Tracer& tracer) {
    if (config.ctkd_path.empty()) throw ctk::Error("ctkd-fanout needs --ctkd");
    const auto in = make_fanout_inputs(config.seed);
    const std::string socket = config.workdir + "/ctkd.sock";
    const std::vector<std::string> args = {
        "--socket", socket, "--sessions", std::to_string(in.clients),
        "--max-entries", std::to_string(in.max_entries)};
    RunReport report;

    // Set-up: spawn ctkd and complete one handshake. Repeated fifteen
    // times (each takes milliseconds) for a steady median; the last
    // daemon serves the run.
    std::unique_ptr<Daemon> daemon;
    for (int rep = 0; rep < 15; ++rep) {
        if (daemon) {
            handshake(socket)->shutdown();
            daemon->wait();
        }
        const auto start = Clock::now();
        daemon = std::make_unique<Daemon>(config.ctkd_path, args,
                                          config.workdir + "/ctkd.log");
        handshake(socket);
        report.setups_s.push_back(seconds_between(start, Clock::now()));
    }

    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(config.seconds));
    std::vector<ClientLog> logs(in.clients);
    std::vector<std::thread> clients;
    Joiner joiner(clients);
    for (std::size_t c = 0; c < in.clients; ++c) {
        clients.emplace_back([&, c] {
            ClientLog& log = logs[c];
            const int lane = static_cast<int>(c) + 1;
            try {
                const auto t0 = Clock::now();
                service::Socket sock = service::connect_local(socket);
                service::write_frame(sock, service::FrameType::Hello,
                                     service::encode(service::HelloMsg{}));
                const auto hello = service::read_frame(sock, 30'000, {});
                if (!hello || hello->type != service::FrameType::HelloOk)
                    throw service::ProtoError("handshake refused");
                if (config.trace)
                    tracer.record({"service.connect", t0, Clock::now(), -1, -1, lane});
                for (std::size_t k = 0; Clock::now() < deadline; ++k) {
                    const std::size_t shape = in.shape_for(k);
                    const bool traced = traced_op(config.trace, k * in.clients + c);
                    OpRecord rec;
                    rec.traced = traced;
                    const auto sent = Clock::now();
                    Reply reply;
                    try {
                        reply = request(sock, request_for(in.shapes[shape]));
                    } catch (const std::exception& e) {
                        rec.ok = false;
                        rec.latency_s = seconds_between(sent, Clock::now());
                        log.ops.push_back(rec);
                        log.failures.push_back("client " + std::to_string(c) + ": " + e.what());
                        break; // the connection state is unknown: stop this client
                    }
                    const auto done = Clock::now();
                    rec.latency_s = seconds_between(sent, done);
                    rec.first_verdict_s = seconds_between(
                        sent, reply.verdicts != 0 ? reply.first_verdict : done);
                    rec.faults = reply.verdicts;
                    const bool cold = reply.done.store.pair_misses > 0;
                    log.cold += cold ? 1 : 0;
                    log.pair_misses += reply.done.store.pair_misses;
                    const auto csv = ctk::report::coverage_to_csv(reply.matrix);
                    if (digest(csv) != expected(config, refs, std::to_string(shape))) {
                        rec.ok = false;
                        log.failures.push_back("client " + std::to_string(c) +
                                               ": reply for shape " + std::to_string(shape) +
                                               " differs from the offline grade");
                    }
                    if (traced) {
                        log.server_wall_ms.push_back(reply.done.wall_s * 1e3);
                        const long id = static_cast<long>(k * in.clients + c);
                        const auto first = reply.verdicts != 0 ? reply.first_verdict : done;
                        const int root = tracer.record({"op", sent, done, -1, id, lane});
                        tracer.record({cold ? "service.wait_cold" : "service.wait_warm",
                                       sent, first, root, id, lane});
                        tracer.record({"service.stream", first, done, root, id, lane});
                    }
                    log.ops.push_back(rec);
                }
            } catch (const std::exception& e) {
                OpRecord failed;
                failed.ok = false;
                log.ops.push_back(failed);
                log.failures.push_back("client " + std::to_string(c) + ": " + e.what());
            }
        });
    }
    joiner.join();
    report.elapsed_s = seconds_between(start, Clock::now());

    handshake(socket)->shutdown();
    report.peak_rss_mb = daemon->wait();
    daemon.reset();
    parse_exit_line(read_file(config.workdir + "/ctkd.log"), report);

    std::size_t cold = 0;
    std::size_t misses = 0;
    for (auto& log : logs) {
        report.ops.insert(report.ops.end(), log.ops.begin(), log.ops.end());
        auto& wall = report.layer_samples["service.server_wall_ms"];
        wall.insert(wall.end(), log.server_wall_ms.begin(), log.server_wall_ms.end());
        cold += log.cold;
        misses += log.pair_misses;
        for (auto& f : log.failures) note_failure(report, f);
    }
    const double requests = static_cast<double>(report.ops.size());
    report.layer_totals["service.cold_share"] = requests > 0 ? double(cold) / requests : 0.0;
    report.layer_totals["service.pair_misses"] = requests > 0 ? double(misses) / requests : 0.0;
    std::ostringstream note;
    note << "cold share: " << cold << " of " << report.ops.size()
         << " requests had pair_misses > 0";
    report.notes.push_back(note.str());
    return report;
}

} // namespace perfbench
