#include <string>

#include "apps/workloads.h"

namespace kivati {
namespace apps {
namespace {

// Models the NSS module of Firefox: a session table and certificate cache
// protected by a global lock, a double-checked initialization flag, and
// unprotected statistics counters that race benignly (the paper's main
// false-positive source for this app).
//
// Shared-state operations live in small helper subroutines, as in the real
// library; the annotator's intra-procedural pairing therefore produces
// short ARs closed by clear_ar at each return rather than loop-spanning
// regions.
std::string NssSource(const LoadScale& scale) {
  return std::string(R"(
    sync int nss_lock;
    sync int nss_initialized;
    int nss_sessions[64];
    int nss_session_count;
    int nss_cert_cache[128];
    int nss_stat_hits;
    int nss_stat_misses;
    int nss_bytes_signed;
    int nss_token_state[16];

    void nss_ensure_init(int id) {
      // Double-checked library initialization (benign/required pattern).
      if (nss_initialized == 0) {
        lock(nss_lock);
        if (nss_initialized == 0) {
          nss_initialized = 1;
        }
        unlock(nss_lock);
      }
    }

    void nss_session_touch(int slot) {
      lock(nss_lock);
      nss_sessions[slot] = nss_sessions[slot] + 1;
      nss_session_count = nss_session_count + 1;
      unlock(nss_lock);
    }

    void nss_cache_probe(int c, int slot) {
      // Certificate cache probe with an unprotected fill: the read and
      // conditional write form an AR other threads can violate (benign: a
      // duplicate fill is harmless). Parsing the certificate between the
      // probe and the fill widens the vulnerable window, as in real code.
      int cached = nss_cert_cache[c];
      int parse = cached;
      for (int k = 0; k < 120; k = k + 1) {
        parse = parse * 31 + k;
      }
      if (cached == 0) {
        nss_stat_misses = nss_stat_misses + 1;
        nss_cert_cache[c] = slot + 1;
      }
      if (cached != 0) {
        nss_stat_hits = nss_stat_hits + 1;
      }
    }

    void nss_token_op(int id) {
      // Smart-card token operation: the session-state slot is marked busy,
      // the token round trip takes a while, then the slot is read back.
      // The write..read region holds a watchpoint for the whole operation.
      nss_token_state[id & 15] = 1;
      io(5000);
      int st = nss_token_state[id & 15];
      nss_token_state[id & 15] = st - 1;
    }

    void nss_invalidate(int c) {
      // Certificate revocation check: a single unpaired write that the
      // annotator leaves unannotated; racing a concurrent cache probe is
      // benign (the entry is refetched) but non-serializable — a false
      // positive source (Table 7).
      nss_cert_cache[c] = 0;
    }

    void nss_stats_report(int unused) {
      // Telemetry snapshot-and-reset: single unpaired writes racing the
      // locked updates elsewhere — benign, but non-serializable with them.
      nss_stat_hits = 0;
      nss_stat_misses = 0;
      nss_session_count = nss_session_count + 0;
      nss_bytes_signed = 0;
    }

    void nss_do_handshake(int seed) {
      // Crypto compute: pure local work dominating each iteration, as the
      // real library's RSA/AES kernels dominate its run time.
      int acc = 1;
      for (int k = 0; k < 400; k = k + 1) {
        acc = acc * 1103515245 + seed;
      }
      nss_bytes_signed = nss_bytes_signed + (acc & 1023);
    }

    void nss_worker(int id) {
      int seed = id * 2654435761 + 97;
      for (int i = 0; i < )" + std::to_string(scale.iterations) + R"(; i = i + 1) {
        nss_ensure_init(id);
        seed = seed * 6364136223846793005 + 1442695040888963407;
        nss_session_touch(seed & 63);
        nss_cache_probe((seed * 31) & 31, seed & 63);
        if ((seed & 7) == 0) {
          nss_invalidate((seed * 13) & 31);
        }
        if ((seed & 31) == 1) {
          nss_stats_report(0);
        }
        nss_do_handshake(seed);
        if ((seed & 3) == 0) {
          nss_token_op(id);
        }
      }
    }
  )");
}

}  // namespace

App MakeNss(const LoadScale& scale) {
  return AssembleApp("NSS", NssSource(scale), "nss_worker", scale.workers, {},
                     400'000'000, scale.frontend);
}

}  // namespace apps
}  // namespace kivati
