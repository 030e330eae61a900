// Umbrella header: the whole public API of the Drum reproduction.
//
//   #include "drum/drum.hpp"
//
// Layering (each header is independently includable):
//
//   util        — bytes/serialization, RNG, stats, flags, tables, logging
//   obs         — metrics registry (counters/gauges/histograms), gossip
//                 trace ring, JSON/CSV exporters
//   crypto      — SHA-256/512, HMAC/HKDF, ChaCha20, X25519, Ed25519 (one-
//                 shot/incremental/batch, see crypto/api.hpp; SIMD backends
//                 behind crypto/backend.hpp), port boxes, identities
//   net         — Transport abstraction, in-memory LAN, UDP sockets
//   core        — the Drum protocol node, its Push/Pull/ablation variants,
//                 and the peer-scoring/greylist defense layer
//   runtime     — real-time execution of many nodes on event-loop shards
//   membership  — CA, certificates, membership table, failure detector,
//                 the gossip-borne membership service, networked CA
//   sim         — the paper's round-based Monte-Carlo simulator
//   analysis    — the paper's closed-form / numerical analysis
//   adversary   — the attack-strategy registry (DESIGN.md §10)
//   harness     — measurement clusters / live swarms with DoS injection
#pragma once

#include "drum/adversary/adversary.hpp"
#include "drum/analysis/appendix_a.hpp"
#include "drum/analysis/appendix_b.hpp"
#include "drum/analysis/appendix_c.hpp"
#include "drum/analysis/asymptotics.hpp"
#include "drum/core/buffer.hpp"
#include "drum/core/config.hpp"
#include "drum/core/message.hpp"
#include "drum/core/node.hpp"
#include "drum/core/scoring.hpp"
#include "drum/crypto/api.hpp"
#include "drum/crypto/backend.hpp"
#include "drum/crypto/chacha20.hpp"
#include "drum/crypto/ed25519.hpp"
#include "drum/crypto/hmac.hpp"
#include "drum/crypto/keys.hpp"
#include "drum/crypto/portbox.hpp"
#include "drum/crypto/sha256.hpp"
#include "drum/crypto/sha512.hpp"
#include "drum/crypto/x25519.hpp"
#include "drum/harness/cluster.hpp"
#include "drum/harness/swarm.hpp"
#include "drum/membership/ca.hpp"
#include "drum/membership/ca_server.hpp"
#include "drum/membership/certificate.hpp"
#include "drum/membership/failure_detector.hpp"
#include "drum/membership/service.hpp"
#include "drum/membership/table.hpp"
#include "drum/net/mem_transport.hpp"
#include "drum/net/transport.hpp"
#include "drum/net/udp_transport.hpp"
#include "drum/obs/export.hpp"
#include "drum/obs/metrics.hpp"
#include "drum/obs/trace.hpp"
#include "drum/runtime/reactor.hpp"
#include "drum/sim/engine.hpp"
#include "drum/util/bytes.hpp"
#include "drum/util/flags.hpp"
#include "drum/util/log.hpp"
#include "drum/util/rng.hpp"
#include "drum/util/stats.hpp"
#include "drum/util/table.hpp"
