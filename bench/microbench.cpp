// google-benchmark microbenchmarks of the hot paths: the crypto primitives
// (what bounds a node's per-round CPU budget, and hence how expensive it is
// for a victim to process fabricated messages), digest/buffer operations,
// the obs primitives, and one full simulated gossip round. The SHA-256,
// SHA-512, pair-key and 1 KiB Ed25519 batch benchmarks run once per
// compiled backend (scalar reference vs the CPUID-selected native one) so
// each kernel's speedup is measured in-tree. After the registered
// benchmarks, main() runs an instrumented-vs-uninstrumented cluster
// comparison (tracing on vs off) and writes microbench_obs.json, then times
// each backend's SHA-256 throughput, the single-vs-batch Ed25519 verify
// cost and the X25519 and pair-key costs, and writes BENCH_crypto.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "drum/core/buffer.hpp"
#include "drum/crypto/api.hpp"
#include "drum/crypto/backend.hpp"
#include "drum/crypto/ed25519.hpp"
#include "drum/crypto/hmac.hpp"
#include "drum/crypto/keys.hpp"
#include "drum/crypto/portbox.hpp"
#include "drum/crypto/x25519.hpp"
#include "drum/harness/cluster.hpp"
#include "drum/obs/export.hpp"
#include "drum/obs/metrics.hpp"
#include "drum/obs/trace.hpp"
#include "drum/sim/engine.hpp"
#include "drum/util/rng.hpp"

namespace {

using namespace drum;

util::Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

// SHA-256 benchmarks take the backend name as a capture so the scalar
// reference and the CPUID-selected native path are measured side by side
// in one run.
void BM_Sha256_1KiB(benchmark::State& state, const char* backend) {
  crypto::set_active_backend(backend);
  auto data = random_bytes(1024, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(util::ByteSpan(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
  crypto::set_active_backend("native");
}
BENCHMARK_CAPTURE(BM_Sha256_1KiB, scalar, "scalar");
BENCHMARK_CAPTURE(BM_Sha256_1KiB, native, "native");

// Four 1 KiB messages per iteration, one lane group of the Ed25519 parse's
// challenge hashes: Sha512 on each under scalar, and native's four-lane
// kernel where the CPU has AVX-512F/VL. per_msg is the cost per message.
void BM_Sha512_1KiB(benchmark::State& state, const char* backend) {
  crypto::set_active_backend(backend);
  const auto sha512_x4 = crypto::active_backend().sha512_x4;
  std::vector<util::Bytes> msgs;
  const std::uint8_t* msg[4] = {};
  std::size_t len[4] = {};
  for (std::size_t l = 0; l < 4; ++l) {
    msgs.push_back(random_bytes(1024, 50 + l));
    msg[l] = msgs[l].data();
    len[l] = msgs[l].size();
  }
  std::uint8_t out[4][64];
  for (auto _ : state) {
    if (sha512_x4 != nullptr) {
      sha512_x4(msg, len, out);
      benchmark::DoNotOptimize(out);
      benchmark::ClobberMemory();
    } else {
      for (const auto& m : msgs) {
        benchmark::DoNotOptimize(crypto::sha512(util::ByteSpan(m)));
      }
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4 * 1024);
  state.counters["per_msg"] = benchmark::Counter(
      4, benchmark::Counter::kIsIterationInvariantRate |
             benchmark::Counter::kInvert);
  crypto::set_active_backend("native");
}
BENCHMARK_CAPTURE(BM_Sha512_1KiB, scalar, "scalar");
BENCHMARK_CAPTURE(BM_Sha512_1KiB, native, "native");

void BM_HmacSha256_64B(benchmark::State& state) {
  auto key = random_bytes(32, 2);
  auto data = random_bytes(64, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::hmac_sha256(util::ByteSpan(key), util::ByteSpan(data)));
  }
}
BENCHMARK(BM_HmacSha256_64B);

void BM_X25519(benchmark::State& state) {
  util::Rng rng(7);
  crypto::X25519Key scalar{};
  for (auto& b : scalar) b = static_cast<std::uint8_t>(rng.below(256));
  auto pub = crypto::x25519_base(scalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::x25519(scalar, pub));
  }
}
BENCHMARK(BM_X25519);

// One identity deriving the pair keys of `n` peers in one batch (the
// X25519 steps share one inversion), reported per key, under each backend:
// n = 4 is a round tick's batch (Node::send_gossip), n = 255 a join-time
// batch (Node::prewarm_pair_keys). Native runs groups of four on the
// four-lane ladder where the CPU has AVX-512 IFMA.
void BM_X25519PairKeys(benchmark::State& state, const char* backend) {
  crypto::set_active_backend(backend);
  util::Rng rng(12);
  const auto self = crypto::Identity::generate(rng);
  std::vector<crypto::X25519Key> peers(static_cast<std::size_t>(state.range(0)));
  for (auto& pub : peers) pub = crypto::Identity::generate(rng).dh_public();
  for (auto _ : state) {
    benchmark::DoNotOptimize(self.derive_pair_keys(peers));
  }
  state.counters["per_key"] = benchmark::Counter(
      static_cast<double>(peers.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  crypto::set_active_backend("native");
}
BENCHMARK_CAPTURE(BM_X25519PairKeys, scalar, "scalar")->Arg(4)->Arg(255);
BENCHMARK_CAPTURE(BM_X25519PairKeys, native, "native")->Arg(4)->Arg(255);

// Four identities deriving one pair key each in one pooled call, as a shard
// pass derives the first contacts of four co-hosted nodes
// (IngressBatch::verify): one four-lane call with a scalar per lane.
void BM_X25519PairKeysMixed(benchmark::State& state) {
  util::Rng rng(13);
  std::vector<crypto::Identity> selves;
  std::vector<crypto::PairKeyRequest> requests;
  for (int l = 0; l < 4; ++l) selves.push_back(crypto::Identity::generate(rng));
  for (const auto& self : selves) {
    requests.push_back({&self, crypto::Identity::generate(rng).dh_public()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Identity::derive_pair_keys(requests));
  }
  state.counters["per_key"] = benchmark::Counter(
      static_cast<double>(requests.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_X25519PairKeysMixed)->Name("BM_X25519PairKeys/native/mixed4");

void BM_Ed25519Sign_50B(benchmark::State& state) {
  util::Rng rng(8);
  auto id = crypto::Identity::generate(rng);
  auto msg = random_bytes(50, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(id.sign(util::ByteSpan(msg)));
  }
}
BENCHMARK(BM_Ed25519Sign_50B);

void BM_Ed25519Verify_50B(benchmark::State& state) {
  util::Rng rng(10);
  auto id = crypto::Identity::generate(rng);
  auto msg = random_bytes(50, 11);
  auto sig = id.sign(util::ByteSpan(msg));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::ed25519_verify(id.sign_public(), util::ByteSpan(msg), sig));
  }
}
BENCHMARK(BM_Ed25519Verify_50B);

// `n` verify jobs over `msg_len`-byte messages, each signed by its own key
// when `distinct_signers`, else all by one key.
struct SignedBatch {
  std::vector<util::Bytes> msgs;
  std::vector<crypto::VerifyJob> jobs;
};
SignedBatch make_batch(std::size_t n, bool distinct_signers,
                       std::uint64_t seed, std::size_t msg_len = 50) {
  util::Rng rng(seed);
  SignedBatch b;
  std::vector<crypto::Identity> ids;
  for (std::size_t i = 0; i < (distinct_signers ? n : 1); ++i) {
    ids.push_back(crypto::Identity::generate(rng));
  }
  for (std::size_t i = 0; i < n; ++i) {
    b.msgs.push_back(random_bytes(msg_len, seed + 1 + i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& id = ids[i % ids.size()];
    const util::ByteSpan m(b.msgs[i].data(), b.msgs[i].size());
    b.jobs.push_back({id.sign_public(), m, id.sign(m)});
  }
  return b;
}

// Batched verification: `range(0)` signatures share one combined check.
// items processed = signatures, so google-benchmark reports per-signature
// cost directly. The one-signer rows are the perfbench traffic, where the
// batch merges every signature's key term into one; the Distinct rows give
// every signature its own key, which the merge cannot help.
void run_verify_batch(benchmark::State& state, bool distinct_signers,
                      std::size_t msg_len = 50) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const SignedBatch b = make_batch(batch, distinct_signers, 20, msg_len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ed25519_verify_batch(
        std::span<const crypto::VerifyJob>(b.jobs)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}

void BM_Ed25519VerifyBatch_50B(benchmark::State& state) {
  run_verify_batch(state, false);
}
BENCHMARK(BM_Ed25519VerifyBatch_50B)->Arg(8)->Arg(16)->Arg(64);

void BM_Ed25519VerifyBatchDistinct_50B(benchmark::State& state) {
  run_verify_batch(state, true);
}
BENCHMARK(BM_Ed25519VerifyBatchDistinct_50B)->Arg(8)->Arg(16)->Arg(64);

// steady's traffic: one warm signer, 1044-byte signed messages, batches of
// 4, 10 and 16 (steady's passes average about 10 signatures, scale's and
// flood's about 5), under each backend, so the parse's lane kernels and
// the scalar reference are compared inside one process.
void BM_Ed25519VerifyBatch_1KiB(benchmark::State& state, const char* backend) {
  crypto::set_active_backend(backend);
  run_verify_batch(state, false, 1044);
  crypto::set_active_backend("native");
}
BENCHMARK_CAPTURE(BM_Ed25519VerifyBatch_1KiB, scalar, "scalar")
    ->Arg(4)->Arg(10)->Arg(16);
BENCHMARK_CAPTURE(BM_Ed25519VerifyBatch_1KiB, native, "native")
    ->Arg(4)->Arg(10)->Arg(16);

// Every iteration verifies a batch under `range(0)` keys never seen before
// (made outside the timed region), so no key is in the signer cache: what a
// flood of unknown signers costs per signature.
void BM_Ed25519VerifyBatchColdSigners(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1000;
  for (auto _ : state) {
    state.PauseTiming();
    const SignedBatch b = make_batch(batch, true, seed++);
    state.ResumeTiming();
    benchmark::DoNotOptimize(crypto::ed25519_verify_batch(
        std::span<const crypto::VerifyJob>(b.jobs)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_Ed25519VerifyBatchColdSigners)->Arg(16);

// Batches of 16 signatures under a rotating set of `keys` signers, more
// than the signer cache's 64 slots per thread. Round-robin (bursty:0):
// batch b holds keys 16b .. 16b + 15 (mod keys), so each key returns every
// keys/16 batches. Bursty (bursty:1): batch b holds keys 4b .. 4b + 15, so
// each key signs in four consecutive batches, and every batch mixes four
// keys seen for the first time with twelve seen before. The batches of one
// period are signed outside the timed region.
void BM_Ed25519VerifyBatchRotatingSigners(benchmark::State& state) {
  constexpr std::size_t kBatch = 16;
  const auto keys = static_cast<std::size_t>(state.range(0));
  const std::size_t step = state.range(1) != 0 ? 4 : kBatch;
  util::Rng rng(21);
  std::vector<crypto::Identity> ids;
  for (std::size_t i = 0; i < keys; ++i) {
    ids.push_back(crypto::Identity::generate(rng));
  }
  const std::size_t period = keys / step;
  std::vector<util::Bytes> msgs;
  for (std::size_t i = 0; i < period * kBatch; ++i) {
    msgs.push_back(random_bytes(50, 2000 + i));
  }
  std::vector<std::vector<crypto::VerifyJob>> batches(period);
  for (std::size_t b = 0; b < period; ++b) {
    for (std::size_t j = 0; j < kBatch; ++j) {
      const auto& id = ids[(step * b + j) % keys];
      const util::Bytes& msg = msgs[b * kBatch + j];
      const util::ByteSpan m(msg.data(), msg.size());
      batches[b].push_back({id.sign_public(), m, id.sign(m)});
    }
  }
  std::size_t b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ed25519_verify_batch(
        std::span<const crypto::VerifyJob>(batches[b])));
    b = (b + 1) % period;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_Ed25519VerifyBatchRotatingSigners)
    ->ArgNames({"keys", "bursty"})
    ->ArgsProduct({{128, 256}, {0, 1}});

void BM_PortBoxSealOpen(benchmark::State& state) {
  util::Rng rng(12);
  auto key = random_bytes(32, 13);
  for (auto _ : state) {
    auto box = crypto::portbox_seal_port(util::ByteSpan(key), 49152, rng);
    benchmark::DoNotOptimize(
        crypto::portbox_open_port(util::ByteSpan(key), util::ByteSpan(box)));
  }
}
BENCHMARK(BM_PortBoxSealOpen);

// Cost of the box-open attempt a victim pays per fabricated control message
// — the unit of work a DoS flood forces.
void BM_PortBoxOpenGarbage(benchmark::State& state) {
  util::Rng rng(14);
  auto key = random_bytes(32, 15);
  auto garbage = random_bytes(crypto::kPortBoxOverhead + 2, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::portbox_open_port(
        util::ByteSpan(key), util::ByteSpan(garbage)));
  }
}
BENCHMARK(BM_PortBoxOpenGarbage);

void BM_BufferSelectMissing(benchmark::State& state) {
  core::MessageBuffer buf(10, 20);
  util::Rng rng(17);
  for (std::uint64_t i = 0; i < 400; ++i) {
    core::DataMessage m;
    m.id = {1, i};
    m.payload = random_bytes(50, i);
    buf.insert(std::move(m), 0);
  }
  core::Digest peer = buf.digest();
  peer.resize(peer.size() / 2);  // peer has half
  for (auto _ : state) {
    benchmark::DoNotOptimize(buf.select_missing(peer, 80, rng));
  }
}
BENCHMARK(BM_BufferSelectMissing);

// One round of `steady`'s buffer traffic at 256 nodes: each buffer ticks,
// takes the round's 10 messages and builds its digest, holding 100 buffered
// and 400 seen ids (10 rounds / 40 rounds). Cycling through 256 buffers
// keeps their entries out of the caches, as on a shard thread. Items are
// buffers.
void BM_BufferRoundTick(benchmark::State& state) {
  constexpr std::size_t kBuffers = 256;
  constexpr std::uint64_t kPerRound = 10;
  std::vector<core::MessageBuffer> bufs;
  bufs.reserve(kBuffers);
  for (std::size_t i = 0; i < kBuffers; ++i) bufs.emplace_back(10, 40);
  const util::Bytes payload = random_bytes(1024, 18);
  std::uint64_t round = 0;
  std::uint64_t seqno = 0;
  auto run_round = [&] {
    ++round;
    for (auto& buf : bufs) {
      buf.on_round(round);
      for (std::uint64_t k = 0; k < kPerRound; ++k) {
        core::DataMessage m;
        m.id = {1, seqno + k};
        m.payload = payload;
        buf.insert(std::move(m), round);
      }
      benchmark::DoNotOptimize(buf.digest());
    }
    seqno += kPerRound;
  };
  for (int r = 0; r < 45; ++r) run_round();  // past seen_rounds: steady state
  for (auto _ : state) run_round();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBuffers));
}
BENCHMARK(BM_BufferRoundTick);

// The obs hot-path primitives — what every counted event in the node pays.
void BM_ObsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("bench.counter");
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(c.value);
  }
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("bench.histogram");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = (v * 2862933555777941757ULL + 3037000493ULL) >> 40;  // cheap mix
    benchmark::DoNotOptimize(h.count());
  }
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsTraceRecord(benchmark::State& state) {
  obs::TraceRing ring(4096);
  std::uint64_t i = 0;
  for (auto _ : state) {
    ring.record(1, static_cast<std::uint32_t>(i++), obs::EventKind::kDeliver,
                42, 7);
    benchmark::DoNotOptimize(ring.total_recorded());
  }
}
BENCHMARK(BM_ObsTraceRecord);

void BM_SimRound(benchmark::State& state) {
  // One full simulated run, n as parameter (drum, alpha=10%, x=128). Uses
  // the reusable-scratch overload, as simulate_many's workers do.
  sim::SimParams p;
  p.protocol = core::Variant::kDrum;
  p.n = static_cast<std::size_t>(state.range(0));
  p.alpha = 0.1;
  p.x = 128;
  util::Rng rng(18);
  sim::SimScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_run(p, rng, scratch));
  }
}
BENCHMARK(BM_SimRound)->Arg(120)->Arg(500)->Arg(1000);

// Wall-clock µs to run a small attacked cluster for `rounds` virtual rounds
// — the node poll/handshake hot path end to end. `traced` toggles the only
// optional instrumentation (the per-node trace ring); the registry counters
// are always on, replacing the old NodeStats fields at the same cost.
std::int64_t time_cluster_us(bool traced, double rounds, std::uint64_t seed) {
  harness::ClusterConfig cfg;
  cfg.n = 8;
  cfg.alpha = 0.5;
  cfg.x = 64;
  cfg.rate = 10;
  cfg.seed = seed;
  cfg.trace_capacity = traced ? 4096 : 0;
  harness::Cluster cluster(cfg);
  cluster.run_rounds(2, true);  // warm-up: buffers filled, gossip flowing
  auto t0 = std::chrono::steady_clock::now();
  cluster.run_rounds(rounds, true);
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
      .count();
}

// Interleaved best-of-`reps` comparison (single-core box: interleaving and
// min-taking both defend against scheduling noise).
void run_obs_overhead_report() {
  const double rounds = 15;
  const int reps = 3;
  std::int64_t best_off = -1, best_on = -1;
  for (int r = 0; r < reps; ++r) {
    auto off = time_cluster_us(false, rounds, 100 + r);
    auto on = time_cluster_us(true, rounds, 100 + r);
    if (best_off < 0 || off < best_off) best_off = off;
    if (best_on < 0 || on < best_on) best_on = on;
  }
  const double overhead_pct =
      best_off > 0
          ? 100.0 * static_cast<double>(best_on - best_off) /
                static_cast<double>(best_off)
          : 0.0;
  std::printf("\nobs overhead (n=8 attacked cluster, %.0f rounds, best of "
              "%d):\n  trace off: %lld us\n  trace on:  %lld us\n  overhead: "
              "%.2f%%\n",
              rounds, reps, static_cast<long long>(best_off),
              static_cast<long long>(best_on), overhead_pct);
  char json[512];
  std::snprintf(json, sizeof json,
                "{\n  \"rounds\": %.0f,\n  \"reps\": %d,\n"
                "  \"uninstrumented_us\": %lld,\n  \"instrumented_us\": "
                "%lld,\n  \"overhead_pct\": %.2f\n}\n",
                rounds, reps, static_cast<long long>(best_off),
                static_cast<long long>(best_on), overhead_pct);
  if (obs::write_text_file("microbench_obs.json", json)) {
    std::printf("  artifact: microbench_obs.json\n");
  }
}

// Per-backend SHA-256 throughput, the single-vs-batch Ed25519 verify cost
// (batch-64 under one key and under 64 keys), one X25519 and the per-key
// cost of a 4-key and a 255-key pair-key batch, written to
// BENCH_crypto.json — the CI artifact that tracks the SHA-NI
// speedup release over release.
void run_crypto_report() {
  using clock = std::chrono::steady_clock;
  auto seconds_of = [](clock::time_point t0, clock::time_point t1) {
    return std::chrono::duration<double>(t1 - t0).count();
  };
  // Finds an iteration count that fills ~40 ms, then times 9 such windows
  // and returns the median seconds per call: on a shared host a single
  // window can read a third off.
  auto time_per_call = [&](auto&& fn) {
    fn();  // warm-up
    std::size_t iters = 1;
    for (;;) {
      auto t0 = clock::now();
      for (std::size_t i = 0; i < iters; ++i) fn();
      if (seconds_of(t0, clock::now()) >= 0.04) break;
      iters *= 4;
    }
    std::array<double, 9> per_call{};
    for (double& secs : per_call) {
      auto t0 = clock::now();
      for (std::size_t i = 0; i < iters; ++i) fn();
      secs = seconds_of(t0, clock::now()) / static_cast<double>(iters);
    }
    std::nth_element(per_call.begin(), per_call.begin() + 4, per_call.end());
    return per_call[4];
  };

  const std::size_t kBufLen = 1 << 20;
  auto buf = random_bytes(kBufLen, 40);

  std::string out = "{\n  \"backends\": [";
  bool first = true;
  for (const auto* be : crypto::all_backends()) {
    crypto::set_active_backend(be->name);
    double sha_s = time_per_call(
        [&] { benchmark::DoNotOptimize(crypto::sha256(util::ByteSpan(buf))); });
    const double mib = static_cast<double>(kBufLen) / (1024.0 * 1024.0);
    char entry[256];
    std::snprintf(entry, sizeof entry,
                  "%s\n    {\"name\": \"%s\", \"sha256_mb_s\": %.1f}",
                  first ? "" : ",", be->name, mib / sha_s);
    out += entry;
    first = false;
  }
  crypto::set_active_backend("native");

  const SignedBatch one = make_batch(64, false, 43);
  const SignedBatch distinct = make_batch(64, true, 43);
  const crypto::VerifyJob& job = one.jobs[0];
  double single_s = time_per_call([&] {
    benchmark::DoNotOptimize(
        crypto::ed25519_verify(job.pub, job.message, job.sig));
  });
  auto batch_s = [&](const SignedBatch& b) {
    return time_per_call([&] {
      benchmark::DoNotOptimize(crypto::ed25519_verify_batch(
          std::span<const crypto::VerifyJob>(b.jobs)));
    });
  };
  util::Rng rng(44);
  const auto self = crypto::Identity::generate(rng);
  std::vector<crypto::X25519Key> peers(255);
  for (auto& pub : peers) pub = crypto::Identity::generate(rng).dh_public();
  const double x25519_s = time_per_call([&] {
    benchmark::DoNotOptimize(crypto::x25519(self.dh_public(), peers[0]));
  });
  const double pair_keys_s = time_per_call([&] {
    benchmark::DoNotOptimize(self.derive_pair_keys(peers));
  });
  const std::span<const crypto::X25519Key> four(peers.data(), 4);
  const double pair_keys4_s = time_per_call([&] {
    benchmark::DoNotOptimize(self.derive_pair_keys(four));
  });
  // Every cost stays a lower-is-better leaf. A derived single/batch ratio
  // would read as a regression whenever single verification gets faster.
  char tail[512];
  std::snprintf(tail, sizeof tail,
                "\n  ],\n  \"ed25519\": {\"verify_us\": %.1f, "
                "\"batch64_us_per_sig\": %.1f, "
                "\"batch64_distinct_us_per_sig\": %.1f},\n"
                "  \"x25519\": {\"x25519_us\": %.1f, "
                "\"pair_keys_us_per_key\": %.1f, "
                "\"pair_keys4_us_per_key\": %.1f}\n}\n",
                single_s * 1e6, batch_s(one) / 64.0 * 1e6,
                batch_s(distinct) / 64.0 * 1e6, x25519_s * 1e6,
                pair_keys_s / 255.0 * 1e6, pair_keys4_s / 4.0 * 1e6);
  out += tail;
  std::printf("\ncrypto backends (1 MiB buffers; batches of 64 signatures):\n%s",
              out.c_str());
  if (obs::write_text_file("BENCH_crypto.json", out)) {
    std::printf("  artifact: BENCH_crypto.json\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_obs_overhead_report();
  run_crypto_report();
  return 0;
}
