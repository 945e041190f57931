// ctkbench — the measuring program behind perfbench/run.py.
//
//   ctkbench oracle   --workload W --seed N --out FILE
//   ctkbench run      --workload W --seed N --seconds S --trace 0|1
//                     --refs FILE --workdir DIR [--ctkd PATH]
//                     [--trace-out FILE] [--git-sha SHA]
//   ctkbench describe --workload W --seed N
//
// `oracle` writes the reference digest of every distinct input the run
// may grade; `run` measures and checks each op against that file and
// prints the result object as its last line; `describe` dumps the
// generated inputs.
#include <fstream>
#include <iostream>
#include <thread>

#include "common/error.hpp"
#include "inputs.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

struct Args {
    std::string mode;
    RunConfig config;
    std::string out;
    std::string refs;
    std::string trace_out;
    std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "ctkbench: " << why << "\n"
              << "usage: ctkbench oracle|run|describe --workload W --seed N "
                 "[--seconds S] [--trace 0|1] [--refs FILE] [--out FILE]\n"
                 "       [--workdir DIR] [--ctkd PATH] [--trace-out FILE] "
                 "[--git-sha SHA]\n";
    std::exit(1);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text,
                         std::uint64_t max) {
    try {
        std::size_t used = 0;
        const auto v = std::stoull(text, &used);
        if (used == text.size() && v <= max) return v;
    } catch (const std::exception&) {
    }
    usage(flag + " needs a whole number up to " + std::to_string(max));
}

Args parse(int argc, char** argv) {
    if (argc < 2) usage("missing mode");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") a.config.workload = value;
        else if (flag == "--seed") a.config.seed = parse_uint(flag, value, UINT64_MAX);
        else if (flag == "--seconds") a.config.seconds = double(parse_uint(flag, value, 3600));
        else if (flag == "--trace") a.config.trace = parse_uint(flag, value, 1) == 1;
        else if (flag == "--workdir") a.config.workdir = value;
        else if (flag == "--ctkd") a.config.ctkd_path = value;
        else if (flag == "--refs") a.refs = value;
        else if (flag == "--out") a.out = value;
        else if (flag == "--trace-out") a.trace_out = value;
        else if (flag == "--git-sha") a.git_sha = value;
        else usage("unknown flag " + flag);
    }
    if (a.config.workload.empty()) usage("--workload is required");
    return a;
}

void write_references(const References& refs, const std::string& path) {
    std::ofstream out(path);
    for (const auto& [key, value] : refs) out << key << " " << value << "\n";
    out.flush();
    if (!out) throw ctk::Error("cannot write " + path);
}

References read_references(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw ctk::Error("cannot read references " + path);
    References refs;
    for (std::string key, value; in >> key && std::getline(in >> std::ws, value);)
        refs[key] = value;
    return refs;
}

std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

void provenance(const Args& a) {
    const std::string build_type = CTKBENCH_BUILD_TYPE;
    std::cout << "provenance: hardware_threads="
              << std::thread::hardware_concurrency()
              << " compiler=\"" << compiler() << "\" build_type=" << build_type
              << " git_sha=" << a.git_sha << "\n";
#ifndef NDEBUG
    std::cout << "WARNING: assertions enabled (NDEBUG unset)\n";
#endif
    if (build_type != "Release")
        std::cout << "WARNING: non-Release build — numbers are not comparable\n";
    std::cout << "workload=" << a.config.workload << " seed=" << a.config.seed
              << " seconds=" << a.config.seconds << " trace=" << a.config.trace
              << " jobs=" << a.config.jobs << "\n";
}

int run(const Args& a) {
    const Workload& workload = find_workload(a.config.workload);
    if (a.refs.empty()) usage("run needs --refs");
    const References refs = read_references(a.refs);
    provenance(a);
    Tracer tracer(a.config.trace);
    const RunReport report = workload.run(a.config, refs, tracer);

    std::vector<std::string> lines;
    const auto metrics = a.config.trace ? per_layer_metrics(report, tracer, lines)
                                        : end_to_end_metrics(report, lines);
    if (a.config.trace && !a.trace_out.empty()) {
        tracer.write_trace_events(a.trace_out);
        lines.push_back("spans written to " + a.trace_out);
    }
    for (const auto& m : metrics)
        std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    for (const auto& line : lines) std::cout << line << "\n";
    for (const auto& note : report.notes) std::cout << note << "\n";
    for (const auto& failure : report.failures) std::cout << "FAILED: " << failure << "\n";
    std::cout << result_json(report, metrics) << std::endl;
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const Args a = parse(argc, argv);
    try {
        if (a.mode == "oracle") {
            if (a.out.empty()) usage("oracle needs --out");
            write_references(find_workload(a.config.workload).reference(a.config.seed, a.config.jobs),
                             a.out);
            return 0;
        }
        if (a.mode == "describe") {
            std::cout << describe_inputs(a.config.workload, a.config.seed);
            return 0;
        }
        if (a.mode == "run") return run(a);
        usage("unknown mode " + a.mode);
    } catch (const std::exception& e) {
        std::cerr << "ctkbench: " << e.what() << "\n";
        return 2;
    }
}
