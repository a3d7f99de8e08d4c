/**
 * @file
 * Serving benchmark program: one workload against an in-process
 * InferenceServer over loopback HTTP, at BERT-base layer geometry.
 *
 * This program measures and records; run.py turns the records into
 * metrics. It writes one JSON file (--out) holding the host stamp,
 * the set-up phase times, every request of every phase (due, send
 * and completion times, status, rows, input id), the server and
 * scheduler counters of each phase and, with --trace 1, the span
 * log.
 *
 * Untraced run (--trace 0): set up the server kSetupRepeats times
 * (the last one serves), compute the reference output of every
 * input with QuantizedTransformer::forward(), run the workload's
 * phases (one per rate of the open-loop ladder, or one closed loop),
 * check every 200 response byte for byte against its reference, and
 * accumulate the SQNR of the served outputs against the FP32 model.
 *
 * Traced run (--trace 1): the same set-up, then three phases of the
 * workload at its nominal rate: over HTTP, submitted directly to a
 * ContinuousScheduler, and over HTTP again through a server whose
 * step function wraps forwardStep() in a span. Afterwards the idle
 * per-layer measurements: forwardStep() and forward() at fixed row
 * counts, the FP32 forward, the tensor-body codec, and the per-site
 * replay of the step composition that took the most traced time.
 *
 * Inputs come from --seed only: the model weights, the profiling
 * batch and the server configuration are fixed. Any response whose
 * bytes differ from the reference makes the run exit non-zero.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/parallel.hh"
#include "layer_replay.hh"
#include "model/config.hh"
#include "model/continuous_scheduler.hh"
#include "model/pipeline.hh"
#include "net/http_client.hh"
#include "net/inference_server.hh"
#include "quant/exp_dictionary.hh"
#include "quant/golden_dictionary.hh"
#include "span_log.hh"
#include "tensor/ops.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace mokey;
using namespace mokey::net;
using namespace perfbench;

namespace
{

constexpr uint64_t kWeightSeed = 42;
constexpr size_t kLayers = 4;        ///< BERT-base encoder layers served
constexpr size_t kSetupRepeats = 3;  ///< setup_s is their median
constexpr size_t kConnections = 4;   ///< open-loop generator connections
constexpr size_t kProfileInputs = 8;
constexpr size_t kProfileRows = 128;
constexpr size_t kDecodeInputsPerRows = 8; ///< distinct inputs per size
constexpr size_t kPrefillInputs = 4;
constexpr int kMismatch = -1;   ///< 200 whose bytes differ
constexpr int kTransport = 0;   ///< connection or transport error

// ---- options ---------------------------------------------------------

struct Options
{
    std::string workload;
    std::string loop = "open";   ///< "open" or "closed"
    std::vector<double> rates;   ///< open-loop ladder (req/s)
    double nominalRate = 0.0;    ///< the rate the trace run uses
    size_t clients = 2;          ///< closed-loop connections
    size_t decodeLo = 0, decodeHi = 0; ///< decode rows (0: none)
    size_t prefillRows = 0;      ///< prefill rows (0: none)
    size_t prefillEvery = 0;     ///< 1 in N requests is a prefill
    bool slotted = false;        ///< open-loop arrivals per 1/rate slot
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
};

std::vector<double>
parseList(const std::string &s)
{
    std::vector<double> v;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        v.push_back(std::stod(item));
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            o.workload = v;
        else if (k == "--loop")
            o.loop = v;
        else if (k == "--rates")
            o.rates = parseList(v);
        else if (k == "--nominal-rate")
            o.nominalRate = std::stod(v);
        else if (k == "--clients")
            o.clients = std::stoul(v);
        else if (k == "--decode-rows") {
            const auto r = parseList(v);
            if (r.size() != 2)
                throw std::invalid_argument("--decode-rows lo,hi");
            o.decodeLo = size_t(r[0]);
            o.decodeHi = size_t(r[1]);
        } else if (k == "--prefill-rows")
            o.prefillRows = std::stoul(v);
        else if (k == "--prefill-every")
            o.prefillEvery = std::stoul(v);
        else if (k == "--arrivals") {
            if (v != "poisson" && v != "slotted")
                throw std::invalid_argument("--arrivals poisson|slotted");
            o.slotted = v == "slotted";
        } else if (k == "--seed")
            o.seed = std::stoull(v);
        else if (k == "--seconds")
            o.seconds = std::stod(v);
        else if (k == "--trace")
            o.trace = v == "1";
        else if (k == "--out")
            o.out = v;
        else
            throw std::invalid_argument("unknown option " + k);
    }
    const bool open = o.loop == "open";
    if (o.out.empty() || (!open && o.loop != "closed") ||
        (open && (o.rates.empty() || o.nominalRate <= 0.0)) ||
        (o.decodeLo == 0 && o.prefillRows == 0) || o.seconds <= 0.0 ||
        o.clients == 0)
        throw std::invalid_argument("incomplete or invalid options");
    return o;
}

// ---- inputs and references ---------------------------------------------

/** Every distinct request input, its wire body and its reference. */
struct Pool
{
    std::vector<Tensor> inputs;
    std::vector<std::string> bodies; ///< encodeTensorBody(input)
    std::vector<std::string> refs;   ///< encodeTensorBody(forward())
    std::vector<double> idleForwardS;
    std::map<size_t, std::vector<int64_t>> byRows;
};

Pool
makePool(const Transformer &model, const Options &o)
{
    Pool pool;
    const auto addInputs = [&](size_t rows, size_t count) {
        for (size_t i = 0; i < count; ++i) {
            const uint64_t s = o.seed * 1000003ull + rows * 1009ull + i;
            pool.byRows[rows].push_back(int64_t(pool.inputs.size()));
            pool.inputs.push_back(model.makeInput(rows, s));
            pool.bodies.push_back(encodeTensorBody(pool.inputs.back()));
        }
    };
    for (size_t r = o.decodeLo; r >= 1 && r <= o.decodeHi; ++r)
        addInputs(r, kDecodeInputsPerRows);
    if (o.prefillRows)
        addInputs(o.prefillRows, kPrefillInputs);
    return pool;
}

/** Reference outputs via forward(); each call is timed while idle. */
void
computeReferences(const QuantizedTransformer &pipe, Pool &pool)
{
    for (const auto &kv : pool.byRows) // warm each shape once
        pipe.forward(pool.inputs[size_t(kv.second[0])],
                     QuantMode::WeightsAndActivations);
    for (const Tensor &in : pool.inputs) {
        const double t0 = nowS();
        const Tensor out = pipe.forward(in, QuantMode::WeightsAndActivations);
        pool.idleForwardS.push_back(nowS() - t0);
        pool.refs.push_back(encodeTensorBody(out));
    }
}

/** Byte-for-byte response check against the pool's references. */
class Verifier
{
  public:
    explicit Verifier(const Pool &p)
        : pool(p), servedFlags(new std::atomic<bool>[p.inputs.size()])
    {
        for (size_t i = 0; i < p.inputs.size(); ++i)
            servedFlags[i] = false;
    }

    /** The record status for a response to input @p id. */
    int verdict(int64_t id, int status, const std::string &body)
    {
        if (status != 200)
            return status;
        checkedCount.fetch_add(1);
        if (body != pool.refs[size_t(id)]) {
            mismatchCount.fetch_add(1);
            return kMismatch;
        }
        servedFlags[size_t(id)] = true;
        return 200;
    }

    uint64_t checked() const { return checkedCount.load(); }
    uint64_t mismatches() const { return mismatchCount.load(); }
    bool served(size_t id) const { return servedFlags[id].load(); }

  private:
    const Pool &pool;
    std::unique_ptr<std::atomic<bool>[]> servedFlags;
    std::atomic<uint64_t> checkedCount{0}, mismatchCount{0};
};

// ---- request schedules ----------------------------------------------

struct Arrival
{
    double due = 0.0; ///< seconds after the phase start
    int64_t pool = 0;
};

/** Picks request inputs: the first of every prefillEvery requests is
 *  a prefill, decode sizes come in shuffled blocks holding each size
 *  once (so every run offers the same row mix), and the inputs of
 *  each size are used round-robin. */
class Mix
{
  public:
    Mix(const Options &o, const Pool &p) : opts(o), pool(p) {}

    int64_t next(std::mt19937_64 &rng)
    {
        const bool prefill = opts.prefillRows &&
            (opts.decodeLo == 0 ||
             (opts.prefillEvery &&
              count % opts.prefillEvery == 0));
        ++count;
        size_t rows = opts.prefillRows;
        if (!prefill) {
            if (decodeBlock.empty()) {
                for (size_t r = opts.decodeLo; r <= opts.decodeHi; ++r)
                    decodeBlock.push_back(r);
                std::shuffle(decodeBlock.begin(), decodeBlock.end(), rng);
            }
            rows = decodeBlock.back();
            decodeBlock.pop_back();
        }
        const auto &ids = pool.byRows.at(rows);
        return ids[cursor[rows]++ % ids.size()];
    }

  private:
    const Options &opts;
    const Pool &pool;
    size_t count = 0;
    std::vector<size_t> decodeBlock;
    std::map<size_t, size_t> cursor;
};

/** The n stratified points (i + 1/2) / n of (0, 1), shuffled. */
std::vector<double>
stratified(size_t n, std::mt19937_64 &rng)
{
    std::vector<double> u(n);
    for (size_t i = 0; i < n; ++i)
        u[i] = (double(i) + 0.5) / double(n);
    std::shuffle(u.begin(), u.end(), rng);
    return u;
}

/**
 * Exactly round(rate * seconds) arrivals over the window, rounded to
 * whole blocks of @p block requests so every run holds the same
 * number of prefills, sorted by due time. Poisson: exponential gaps,
 * stratified so that every seed draws the same n gap quantiles
 * -ln(1 - (i + 1/2) / n) in a shuffled order, scaled to fill the
 * window; seeds then differ in where the short gaps fall, not in how
 * many there are. Slotted: a fixed rate without bursts. Each block
 * takes @p block equal slots; its first request (a ragged mix's
 * prefill) lands in the first slot, and its k-th later request k
 * slots after that, shifted by up to half a slot either way. The
 * points in the slot and the shifts are stratified over the blocks,
 * so every seed places the same set of offsets behind a block's first
 * request and only their order differs.
 */
std::vector<Arrival>
openArrivals(double rate, double seconds, size_t block, bool slotted,
             Mix &mix, std::mt19937_64 &rng)
{
    const size_t blocks = std::max<size_t>(
        1, size_t(std::llround(rate * seconds / double(block))));
    const size_t n = blocks * block;
    std::vector<Arrival> a(n);
    if (slotted) {
        const double slot = seconds / double(n);
        const std::vector<double> first = stratified(blocks, rng);
        for (size_t b = 0; b < blocks; ++b)
            a[b * block].due = (double(b * block) + first[b]) * slot;
        for (size_t k = 1; k < block; ++k) {
            const std::vector<double> shift = stratified(blocks, rng);
            for (size_t b = 0; b < blocks; ++b)
                a[b * block + k].due = a[b * block].due +
                    (double(k) + shift[b] - 0.5) * slot;
        }
    } else {
        std::vector<double> gaps = stratified(n, rng);
        double total = 0.0;
        for (double &g : gaps)
            total += g = -std::log(1.0 - g);
        double t = 0.0;
        for (size_t i = 0; i < n; ++i) {
            t += gaps[i];
            a[i].due = t * seconds / total;
        }
    }
    for (Arrival &x : a)
        x.pool = mix.next(rng);
    std::sort(a.begin(), a.end(), [](const Arrival &x, const Arrival &y) {
        return x.due < y.due;
    });
    return a;
}

// ---- phases ----------------------------------------------------------

struct Record
{
    double due = 0.0, send = 0.0, end = 0.0;
    int status = kTransport;
    size_t rows = 0;
    int64_t pool = 0;
};

/** Counters of one phase (differences over the phase). */
using Counters = std::vector<std::pair<std::string, double>>;

struct Phase
{
    std::string name;
    std::string kind; ///< "http" or "direct"
    bool traced = false;
    double rate = 0.0; ///< offered req/s (0 for a closed loop)
    double seconds = 0.0;
    std::vector<Record> records;
    Counters counters;
};

void
sleepUntilS(double t)
{
    std::this_thread::sleep_until(atS(t));
}

/** One client connection: sends input @p id, returns the status and
 *  the response bytes (kTransport on a transport error). */
using Sender = std::function<std::pair<int, std::string>(int64_t id)>;

/** Opens one client connection (called on the client's thread). */
using Connect = std::function<Sender()>;

Connect
httpConnect(uint16_t port, const Pool &pool)
{
    return [port, &pool] {
        auto cli = std::make_shared<HttpClient>("127.0.0.1", port);
        cli->get("/healthz"); // dial before the clock starts
        return Sender([cli, &pool](int64_t id) {
            try {
                HttpResponse rsp =
                    cli->post("/v1/forward", pool.bodies[size_t(id)]);
                return std::make_pair(rsp.status, std::move(rsp.body));
            } catch (const std::exception &) {
                cli->close();
                return std::make_pair(kTransport, std::string());
            }
        });
    };
}

/** Submits straight into the scheduler and waits, as a closed-loop
 *  client would; a request that throws counts as a 500. */
Connect
directConnect(ContinuousScheduler &sched, const Pool &pool)
{
    return [&sched, &pool] {
        return Sender([&sched, &pool](int64_t id) {
            try {
                const Tensor out =
                    sched.submit(Tensor(pool.inputs[size_t(id)])).get();
                return std::make_pair(200, encodeTensorBody(out));
            } catch (const std::exception &) {
                return std::make_pair(500, std::string());
            }
        });
    };
}

/** Send input @p id through @p send into record @p r. */
void
sendRecorded(const Sender &send, int64_t id, const Pool &pool,
             Verifier &ver, Record &r)
{
    r.pool = id;
    r.rows = pool.inputs[size_t(id)].rows();
    r.send = nowS();
    auto [status, body] = send(id);
    r.end = nowS();
    r.status = ver.verdict(id, status, body);
}

/** Open loop: @p conns connections take the arrivals in order and
 *  send each at its due time (or as soon as one is free). */
std::vector<Record>
runOpen(const Connect &connect, const std::vector<Arrival> &arrivals,
        size_t conns, const Pool &pool, Verifier &ver)
{
    std::vector<Record> recs(arrivals.size());
    std::atomic<size_t> next{0};
    const double t0 = nowS() + 0.05;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns; ++c)
        threads.emplace_back([&] {
            const Sender send = connect();
            for (size_t i = next++; i < arrivals.size(); i = next++) {
                recs[i].due = t0 + arrivals[i].due;
                sleepUntilS(recs[i].due);
                sendRecorded(send, arrivals[i].pool, pool, ver, recs[i]);
            }
        });
    for (auto &t : threads)
        t.join();
    return recs;
}

/** Closed loop: @p clients connections each send their next request
 *  when the previous one completes, for @p seconds. */
std::vector<Record>
runClosed(const Connect &connect, const std::vector<int64_t> &order,
          size_t clients, double seconds, const Pool &pool, Verifier &ver)
{
    std::vector<std::vector<Record>> per(clients);
    std::atomic<size_t> next{0};
    const double t0 = nowS() + 0.05, tEnd = t0 + seconds;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            const Sender send = connect();
            sleepUntilS(t0);
            while (nowS() < tEnd) {
                Record r;
                r.due = nowS();
                sendRecorded(send, order[next++ % order.size()], pool, ver,
                             r);
                per[c].push_back(r);
            }
        });
    for (auto &t : threads)
        t.join();
    std::vector<Record> all;
    for (auto &v : per)
        all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end(),
              [](const Record &l, const Record &r) { return l.due < r.due; });
    return all;
}

/** Open loop straight into the scheduler: one submitter thread,
 *  completion times stamped by the callbacks. */
std::vector<Record>
runOpenDirect(ServingScheduler &sched, const std::vector<Arrival> &arrivals,
              const Pool &pool, Verifier &ver)
{
    std::vector<Record> recs(arrivals.size());
    std::vector<Tensor> outs(arrivals.size());
    const double t0 = nowS() + 0.05;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        Record &r = recs[i];
        r.pool = arrivals[i].pool;
        r.rows = pool.inputs[size_t(r.pool)].rows();
        r.due = t0 + arrivals[i].due;
        sleepUntilS(r.due);
        r.send = nowS();
        Tensor *slot = &outs[i];
        const bool accepted = sched.submit(
            Tensor(pool.inputs[size_t(r.pool)]),
            [&r, slot](Tensor out, std::exception_ptr err) {
                r.end = nowS();
                r.status = err ? 500 : 200;
                *slot = std::move(out);
            },
            kNoDeadline);
        if (!accepted) {
            r.end = nowS();
            r.status = 503;
        }
    }
    sched.drain();
    for (size_t i = 0; i < recs.size(); ++i)
        if (recs[i].status == 200)
            recs[i].status = ver.verdict(recs[i].pool, 200,
                                         encodeTensorBody(outs[i]));
    return recs;
}

/** The closed-loop input order: round-robin over the pool. */
std::vector<int64_t>
closedOrder(Mix &mix, std::mt19937_64 &rng)
{
    std::vector<int64_t> order(256);
    for (int64_t &id : order)
        id = mix.next(rng);
    return order;
}

Counters
schedCounters(const ContinuousSchedulerStats &a,
              const ContinuousSchedulerStats &b)
{
    return {{"sched_steps", double(b.steps - a.steps)},
            {"sched_step_rows", double(b.stepRows - a.stepRows)},
            {"sched_completed", double(b.completed - a.completed)},
            {"sched_prefill_deferrals",
             double(b.prefillDeferrals - a.prefillDeferrals)}};
}

/** A server's counters, snapshotted around a phase. */
struct ServerSnapshot
{
    InferenceServerStats srv;
    SocketServerStats sock;
    ContinuousSchedulerStats sched;

    static ServerSnapshot of(const InferenceServer &s)
    {
        return {s.stats(), s.socketStats(), s.continuousSchedulerStats()};
    }
};

Counters
serverCounters(const ServerSnapshot &a, const ServerSnapshot &b)
{
    Counters c = schedCounters(a.sched, b.sched);
    c.push_back({"http_requests", double(b.srv.requests - a.srv.requests)});
    c.push_back({"bytes_in", double(b.sock.bytesIn - a.sock.bytesIn)});
    c.push_back({"bytes_out", double(b.sock.bytesOut - a.sock.bytesOut)});
    return c;
}

// ---- traced step function -------------------------------------------

/** FNV-1a over one activation row: identifies a request's rows
 *  across layer steps without any help from the scheduler. */
uint64_t
rowHash(const float *row, size_t n)
{
    uint64_t h = 1469598103934665603ull;
    const auto *p = reinterpret_cast<const unsigned char *>(row);
    for (size_t i = 0; i < n * sizeof(float); ++i)
        h = (h ^ p[i]) * 1099511628211ull;
    return h;
}

/**
 * The step function of the traced server: forwardStep() wrapped in a
 * "step" span recording layer, rows and the pool ids of its members.
 * A member is recognised by the hash of its first row: at layer 0
 * against the pool inputs, later against the previous step outputs.
 */
class StepTracer
{
  public:
    StepTracer(const QuantizedTransformer &p, const Pool &pool, SpanLog &l)
        : pipe(p), log(l)
    {
        for (size_t i = 0; i < pool.inputs.size(); ++i)
            owner[rowHash(pool.inputs[i].row(0), pool.inputs[i].cols())] =
                int64_t(i);
    }

    Tensor operator()(size_t layer, const Tensor &stacked,
                      const std::vector<size_t> &starts, QuantMode mode,
                      Lane lane)
    {
        Span s;
        s.name = "step";
        s.start = nowS();
        Tensor out = pipe.forwardStep(layer, stacked, starts, mode, lane);
        s.end = nowS();
        s.attrs = {{"layer", double(layer)},
                   {"rows", double(stacked.rows())},
                   {"members", double(starts.size() - 1)}};
        std::lock_guard<std::mutex> g(mu);
        stepLane = lane;
        for (size_t b = 0; b + 1 < starts.size(); ++b) {
            const auto it =
                owner.find(rowHash(stacked.row(starts[b]), stacked.cols()));
            const int64_t id = it == owner.end() ? -1 : it->second;
            s.members.push_back(id);
            s.attrs.push_back(
                {"rows" + std::to_string(b), double(starts[b + 1] - starts[b])});
            owner[rowHash(out.row(starts[b]), out.cols())] = id;
        }
        log.add(std::move(s));
        return out;
    }

    Lane lane() const
    {
        std::lock_guard<std::mutex> g(mu);
        return stepLane;
    }

  private:
    const QuantizedTransformer &pipe;
    SpanLog &log;
    mutable std::mutex mu;
    std::unordered_map<uint64_t, int64_t> owner;
    Lane stepLane;
};

// ---- set-up -----------------------------------------------------------

/** Everything set-up produces; members are declared (and so
 *  destroyed in reverse) in dependency order. */
struct Served
{
    std::unique_ptr<Quantizer> quantizer;
    std::unique_ptr<QuantizedTransformer> pipe;
    std::unique_ptr<InferenceServer> server;

    /** Tear down users before what they reference. */
    void reset()
    {
        server.reset();
        pipe.reset();
        quantizer.reset();
    }
};

/** Float model in hand -> server answering, one span per phase. */
Served
setUp(const Transformer &model, const std::vector<Tensor> &profileBatch,
      SpanLog &log, int64_t repeat)
{
    Served s;
    Span root;
    root.name = "setup";
    root.start = nowS();
    root.attrs = {{"repeat", double(repeat)}};
    const int64_t parent = log.add(root);
    log.timed(
        "setup.dict_fit",
        [&] {
            const auto gd = GoldenDictionary::generate({});
            s.quantizer = std::make_unique<Quantizer>(ExpDictionary::fit(gd));
        },
        parent);
    log.timed(
        "setup.quantize_weights",
        [&] {
            s.pipe = std::make_unique<QuantizedTransformer>(model,
                                                            *s.quantizer);
            s.pipe->quantizeWeights();
        },
        parent);
    log.timed("setup.profile",
              [&] { s.pipe->profileActivations(profileBatch); }, parent);
    log.timed(
        "setup.server_start",
        [&] {
            s.server = std::make_unique<InferenceServer>(*s.pipe);
            s.server->start();
            HttpClient cli("127.0.0.1", s.server->port());
            if (cli.get("/healthz").status != 200)
                throw std::runtime_error("server did not answer /healthz");
        },
        parent);
    log.close(parent);
    return s;
}

// ---- host stamp and output -------------------------------------------

std::string
isaLevel()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return "avx512";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "generic";
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

void
writeCounters(std::FILE *f, const Counters &c)
{
    std::fprintf(f, "{");
    for (size_t i = 0; i < c.size(); ++i)
        std::fprintf(f, "%s\"%s\":%.17g", i ? "," : "", c[i].first.c_str(),
                     c[i].second);
    std::fprintf(f, "}");
}

struct Results
{
    std::vector<Phase> phases;
    Counters totals; ///< run-wide numbers (verification, SQNR, ...)
    std::vector<double> idleForwardS;
};

bool
writeResults(const std::string &path, const Options &o, const Results &r,
             const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const char *threads = std::getenv("MOKEY_THREADS");
    std::fprintf(f,
                 "{\"host\":{\"nproc\":%u,\"isa\":\"%s\","
                 "\"mokey_threads\":\"%s\",\"pool_threads\":%zu,"
                 "\"compiler\":\"%s\",\"build_type\":\"%s\","
                 "\"layers\":%zu,\"decode_max_rows\":%zu,\"seed\":%llu,"
                 "\"workload\":\"%s\"},\n",
                 std::thread::hardware_concurrency(), isaLevel().c_str(),
                 threads ? threads : "unset", threadCount(),
                 PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, kLayers,
                 InferenceServerConfig{}.continuousScheduler.decodeMaxRows,
                 static_cast<unsigned long long>(o.seed),
                 o.workload.c_str());
    std::fprintf(f, "\"totals\":");
    writeCounters(f, r.totals);
    std::fprintf(f, ",\n\"idle_forward_s\":[");
    for (size_t i = 0; i < r.idleForwardS.size(); ++i)
        std::fprintf(f, "%s%.9f", i ? "," : "", r.idleForwardS[i]);
    std::fprintf(f, "],\n\"phases\":[");
    for (size_t p = 0; p < r.phases.size(); ++p) {
        const Phase &ph = r.phases[p];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"kind\":\"%s\",\"traced\":%d,"
                     "\"rate\":%.9g,\"seconds\":%.9g,\"counters\":",
                     p ? "," : "", ph.name.c_str(), ph.kind.c_str(),
                     ph.traced ? 1 : 0, ph.rate, ph.seconds);
        writeCounters(f, ph.counters);
        std::fprintf(f, ",\"requests\":[");
        for (size_t i = 0; i < ph.records.size(); ++i) {
            const Record &x = ph.records[i];
            std::fprintf(f, "%s[%.9f,%.9f,%.9f,%d,%zu,%lld]", i ? "," : "",
                         x.due, x.send, x.end, x.status, x.rows,
                         static_cast<long long>(x.pool));
        }
        std::fprintf(f, "]}");
    }
    std::fprintf(f, "],\n\"spans\":");
    writeSpans(f, spans);
    std::fprintf(f, "}\n");
    return std::fclose(f) == 0;
}

// ---- idle per-layer measurements (traced run) ------------------------

/** One warm call of @p fn, then @p reps calls logged as @p name. */
template <class Fn>
void
timedReps(SpanLog &log, const std::string &name, size_t reps, Fn &&fn)
{
    fn(); // warm
    for (size_t i = 0; i < reps; ++i)
        log.timed(name, fn);
}

/** Stack pool inputs with the given member row counts. */
Tensor
stackRows(const Pool &pool, const std::vector<size_t> &rows,
          std::vector<size_t> &starts)
{
    std::vector<const Tensor *> parts;
    std::map<size_t, size_t> used;
    starts = {0};
    for (size_t r : rows) {
        const auto &ids = pool.byRows.at(r);
        parts.push_back(&pool.inputs[size_t(ids[used[r]++ % ids.size()])]);
        starts.push_back(starts.back() + r);
    }
    return concatRows(parts);
}

/** The member row counts of the step composition that took the
 *  most traced step time (the ledger replays it). */
std::vector<size_t>
ledgerComposition(const std::vector<Span> &spans)
{
    std::map<std::vector<size_t>, double> time;
    for (const Span &s : spans) {
        if (s.name != "step")
            continue;
        std::vector<size_t> rows;
        for (const auto &a : s.attrs)
            if (a.first.rfind("rows", 0) == 0 && a.first != "rows")
                rows.push_back(size_t(a.second));
        time[rows] += s.end - s.start;
    }
    std::vector<size_t> best;
    double most = -1.0;
    for (const auto &kv : time)
        if (kv.second > most) {
            most = kv.second;
            best = kv.first;
        }
    return best;
}

void
measureLayers(const Transformer &model, const Served &s, const Pool &pool,
              const std::vector<size_t> &composition, SpanLog &log)
{
    const QuantizedTransformer &pipe = *s.pipe;
    const auto mode = QuantMode::WeightsAndActivations;

    // Tensor-body codec over the pool, weighted like the requests.
    for (size_t i = 0; i < pool.inputs.size(); ++i) {
        const Tensor &in = pool.inputs[i];
        std::string body;
        Tensor back;
        for (int rep = 0; rep < 3; ++rep) {
            log.timed("net.body_encode",
                      [&] { body = encodeTensorBody(in); }, -1,
                      {{"pool", double(i)}});
            log.timed("net.body_decode",
                      [&] { decodeTensorBody(body, back); }, -1,
                      {{"pool", double(i)}});
        }
    }

    for (size_t rows : {1, 2, 4, 128}) {
        const Tensor x = model.makeInput(rows, 7001 + rows);
        const std::vector<size_t> starts{0, rows};
        timedReps(log, "pipeline.step.rows" + std::to_string(rows),
                  rows >= 128 ? 3 : 7,
                  [&] { pipe.forwardStep(0, x, starts, mode); });
    }
    for (size_t seq : {1, 8, 128}) {
        const Tensor x = model.makeInput(seq, 8001 + seq);
        timedReps(log, "pipeline.forward.seq" + std::to_string(seq),
                  seq >= 128 ? 3 : 5, [&] { pipe.forward(x, mode); });
    }
    {
        const Tensor x = model.makeInput(128, 9129);
        timedReps(log, "ref.fp32_forward.seq128", 3,
                  [&] { model.forward(x); });
    }

    // The ledger: the measured step and its per-site replay on the
    // same stacked inputs, alternating so drift on the host hits both
    // alike.
    std::vector<size_t> starts;
    const Tensor x = stackRows(pool, composition, starts);
    const LayerReplay replay(model, *s.quantizer, pipe, 0);
    SpanLog scratch;
    replay.run(x, starts, scratch); // warm
    pipe.forwardStep(0, x, starts, mode);
    for (int i = 0; i < 5; ++i) {
        log.timed("ledger.step",
                  [&] { pipe.forwardStep(0, x, starts, mode); });
        replay.run(x, starts, log);
    }
    Span planes;
    planes.name = "quant.weight_planes";
    planes.attrs = {{"bytes", double(replay.weightPlaneBytes() *
                                     model.config().layers)}};
    log.add(planes);
}

/** Signal and noise energy of the served outputs against the FP32
 *  model, each distinct served input once. A served output is the
 *  reference byte for byte (the Verifier checked), so the references
 *  stand in for the responses. */
Counters
servedSqnr(const Transformer &model, const Pool &pool, const Verifier &ver)
{
    double signal = 0.0, noise = 0.0, outputs = 0.0;
    for (size_t i = 0; i < pool.inputs.size(); ++i) {
        if (!ver.served(i))
            continue;
        const Tensor ref = model.forward(pool.inputs[i]);
        Tensor got;
        decodeTensorBody(pool.refs[i], got);
        for (size_t k = 0; k < ref.size(); ++k) {
            const double d = double(got.data()[k]) - ref.data()[k];
            signal += double(ref.data()[k]) * ref.data()[k];
            noise += d * d;
        }
        outputs += 1.0;
    }
    return {{"sqnr_signal", signal},
            {"sqnr_noise", noise},
            {"sqnr_outputs", outputs}};
}

// ---- workloads ---------------------------------------------------------

int
run(const Options &o)
{
    SpanLog log;
    nowS();

    ModelConfig cfg = bertBase();
    cfg.layers = kLayers;
    const Transformer model(cfg, kWeightSeed);
    std::vector<Tensor> profileBatch;
    for (size_t i = 0; i < kProfileInputs; ++i)
        profileBatch.push_back(model.makeInput(kProfileRows, 100 + i));

    Served served;
    for (size_t r = 0; r < kSetupRepeats; ++r) {
        served.reset();
        served = setUp(model, profileBatch, log, int64_t(r));
    }
    const QuantizedTransformer &pipe = *served.pipe;

    Pool pool = makePool(model, o);
    computeReferences(pipe, pool);
    Verifier ver(pool);

    std::mt19937_64 rng(o.seed);
    Mix mix(o, pool);
    const bool open = o.loop == "open";
    // Load comes from this one process with no more connections
    // (and client threads) than the host has cores.
    const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    const size_t conns = std::min(kConnections, nproc);
    const size_t clients = std::min(o.clients, nproc);
    Results res;

    // The measured time is split over the phases. Untraced, the
    // nominal rate, whose p50 and tail are reported, gets two thirds
    // of it (all of it if it is the only rung); the other rungs of the
    // ladder share the rest with the same number of requests each, so
    // each rung's tail rests on as many samples. Traced, the three
    // phases get a third each and replay one schedule, so they see the
    // same requests at the same rate.
    const double traceSeconds = o.seconds / 3.0;
    const size_t block = std::max<size_t>(1, o.prefillEvery);
    double ladderInverse = 0.0; // sum of 1/rate over the other rungs
    for (double r : o.rates)
        if (r != o.nominalRate)
            ladderInverse += 1.0 / r;
    const auto rungSeconds = [&](double rate) {
        if (ladderInverse == 0.0)
            return o.seconds;
        if (rate == o.nominalRate)
            return o.seconds * 2.0 / 3.0;
        return o.seconds / 3.0 / ladderInverse / rate;
    };
    const std::vector<Arrival> traceArrivals = open && o.trace
        ? openArrivals(o.nominalRate, traceSeconds, block, o.slotted, mix,
                       rng)
        : std::vector<Arrival>{};
    const std::vector<int64_t> order = closedOrder(mix, rng);

    const auto httpPhase = [&](InferenceServer &server, std::string name,
                               double rate, bool traced) {
        Phase ph;
        ph.name = std::move(name);
        ph.kind = "http";
        ph.traced = traced;
        ph.rate = rate;
        const auto before = ServerSnapshot::of(server);
        if (open) {
            ph.seconds = o.trace ? traceSeconds : rungSeconds(rate);
            ph.records = runOpen(
                httpConnect(server.port(), pool),
                o.trace ? traceArrivals
                        : openArrivals(rate, ph.seconds, block, o.slotted, mix,
                                       rng),
                conns, pool, ver);
        } else {
            ph.seconds = o.trace ? traceSeconds : o.seconds;
            ph.records = runClosed(httpConnect(server.port(), pool), order,
                                   clients, ph.seconds, pool, ver);
        }
        ph.counters = serverCounters(before, ServerSnapshot::of(server));
        res.phases.push_back(std::move(ph));
    };

    // Warm the serving path once per request size.
    {
        HttpClient cli("127.0.0.1", served.server->port());
        for (const auto &kv : pool.byRows)
            cli.post("/v1/forward", pool.bodies[size_t(kv.second[0])]);
    }

    if (!o.trace) {
        if (open) {
            for (double rate : o.rates) {
                std::ostringstream n;
                n << "rate_" << rate;
                httpPhase(*served.server, n.str(), rate, false);
            }
        } else {
            httpPhase(*served.server, "closed", 0.0, false);
        }
        served.server->drain();

        res.totals = servedSqnr(model, pool, ver);
    } else {
        const double rate = open ? o.nominalRate : 0.0;
        httpPhase(*served.server, "http", rate, false);
        served.server->drain();

        {
            Phase ph;
            ph.name = "direct";
            ph.kind = "direct";
            ph.rate = rate;
            ph.seconds = traceSeconds;
            ContinuousScheduler sched(pipe, QuantMode::WeightsAndActivations);
            const auto before = sched.stats();
            ph.records = open
                ? runOpenDirect(sched, traceArrivals, pool, ver)
                : runClosed(directConnect(sched, pool), order, clients,
                            traceSeconds, pool, ver);
            ph.counters = schedCounters(before, sched.stats());
            res.phases.push_back(std::move(ph));
        }

        StepTracer tracer(pipe, pool, log);
        InferenceServer traced(
            [&tracer](size_t layer, const Tensor &x,
                      const std::vector<size_t> &starts, QuantMode mode,
                      Lane lane) { return tracer(layer, x, starts, mode, lane); },
            cfg.layers, cfg.hidden);
        traced.start();
        {
            HttpClient cli("127.0.0.1", traced.port());
            cli.post("/v1/forward", pool.bodies[0]); // learn the lane
        }
        const size_t warmSpans = log.snapshot().size();
        const LaneStats laneBefore = laneStats(tracer.lane());
        httpPhase(traced, "http_traced", rate, true);
        const LaneStats laneAfter = laneStats(tracer.lane());
        traced.drain();
        Counters &c = res.phases.back().counters;
        c.push_back({"lane_loops", double(laneAfter.loops - laneBefore.loops)});
        c.push_back(
            {"lane_chunks", double(laneAfter.chunks - laneBefore.chunks)});
        c.push_back(
            {"lane_donated", double(laneAfter.donated - laneBefore.donated)});

        std::vector<Span> phaseSpans = log.snapshot();
        phaseSpans.erase(phaseSpans.begin(),
                         phaseSpans.begin() + long(warmSpans));
        const std::vector<size_t> composition = ledgerComposition(phaseSpans);
        if (composition.empty())
            throw std::runtime_error("traced phase ran no steps");
        measureLayers(model, served, pool, composition, log);

        res.totals = {
            {"weight_ot_frac", pipe.weightOutlierFraction()},
            {"act_ot_frac", pipe.activationOutlierFraction()},
            {"outlier_pair_frac", pipe.matmulStats().outlierPairFraction()}};
    }

    res.totals.push_back({"verified", double(ver.checked())});
    res.totals.push_back({"mismatches", double(ver.mismatches())});
    res.totals.push_back({"peak_rss_mb", peakRssMb()});
    res.idleForwardS = pool.idleForwardS;
    if (!writeResults(o.out, o, res, log.snapshot())) {
        std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
        return 1;
    }
    return ver.mismatches() == 0 ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseOptions(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_serve: %s\n", e.what());
        return 2;
    }
}
