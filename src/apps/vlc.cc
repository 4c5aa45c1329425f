#include <string>

#include "apps/workloads.h"

namespace kivati {
namespace apps {
namespace {

// Models VLC's playback pipeline: even-numbered workers decode frames into
// a lock-protected FIFO, odd-numbered workers drain it and "render". Frame
// counters are deliberately unprotected (benign races), as media players'
// statistics typically are. FIFO operations are their own subroutines, so
// their ARs are short-lived (clear_ar at return) like the real player's
// fifo_Put/fifo_Get.
std::string VlcSource(const LoadScale& scale) {
  const int frames = scale.iterations;
  return std::string(R"(
    sync int vlc_fifo_lock;
    int vlc_fifo[64];
    int vlc_head;
    int vlc_tail;
    int vlc_frames_decoded;
    int vlc_frames_rendered;
    int vlc_dropped;
    int vlc_dma_state[16];

    int vlc_push(int frame) {
      int pushed = 0;
      lock(vlc_fifo_lock);
      int next = (vlc_tail + 1) & 63;
      if (next != vlc_head) {
        vlc_fifo[vlc_tail] = frame;
        vlc_tail = next;
        pushed = 1;
      }
      unlock(vlc_fifo_lock);
      return pushed;
    }

    int vlc_pop(int unused) {
      int frame = 0;
      lock(vlc_fifo_lock);
      if (vlc_head != vlc_tail) {
        frame = vlc_fifo[vlc_head];
        vlc_head = (vlc_head + 1) & 63;
      }
      unlock(vlc_fifo_lock);
      return frame;
    }

    void vlc_count_decoded(int n) {
      // Unprotected counter: read-modify-write races benignly with the
      // renderer reading it for the on-screen display.
      vlc_frames_decoded = vlc_frames_decoded + n;
    }

    int vlc_osd_update(int rendered) {
      int osd = vlc_frames_decoded;
      int drops = vlc_dropped;
      int dropped = 0;
      for (int k = 0; k < 100; k = k + 1) {
        dropped = dropped * 3 + k;
      }
      dropped = 0;
      if (osd - rendered > 48) {
        vlc_dropped = drops + 1;
        dropped = 1;
      }
      vlc_frames_rendered = vlc_frames_rendered + 1;
      return dropped;
    }

    void vlc_hw_decode(int id) {
      // Hardware-assisted decode: the DMA descriptor slot stays claimed
      // while the engine runs, pinning a watchpoint for the duration.
      // Claim both the DMA descriptor and the output picture buffer for
      // the duration of the hardware decode.
      vlc_dma_state[id & 15] = 1;
      vlc_dma_state[(id + 4) & 15] = 1;
      sleep(9000);
      int st = vlc_dma_state[id & 15];
      vlc_dma_state[id & 15] = st - 1;
      int pic = vlc_dma_state[(id + 4) & 15];
      vlc_dma_state[(id + 4) & 15] = pic - 1;
    }

    void vlc_vsync_wait(int id) {
      // Display path: the vout picture slot stays claimed until vsync.
      vlc_dma_state[(id + 8) & 15] = 1;
      sleep(3000);
      int st = vlc_dma_state[(id + 8) & 15];
      vlc_dma_state[(id + 8) & 15] = st - 1;
    }

    void vlc_stats_overlay(int unused) {
      // Updating the statistics overlay rewrites the counters in place:
      // single unpaired accesses racing the decode/render updates.
      vlc_frames_decoded = vlc_frames_decoded + 0;
      vlc_frames_rendered = vlc_frames_rendered + 0;
    }

    void vlc_osd_reset(int unused) {
      // Clearing the on-screen drop counter is a single unpaired write —
      // unannotated, benign, occasionally non-serializable with an OSD
      // update in flight.
      vlc_dropped = 0;
    }

    void vlc_decode_one(int seed) {
      int acc = seed;
      for (int k = 0; k < 350; k = k + 1) {
        acc = acc * 48271 + k;
      }
    }

    void vlc_decoder_loop(int id) {
      int seed = id + 11;
      for (int i = 0; i < )" + std::to_string(frames) + R"(; i = i + 1) {
        vlc_decode_one(seed + i);
        vlc_hw_decode(id);
        int pushed = 0;
        while (pushed == 0) {
          pushed = vlc_push(i + 1);
          if (pushed == 0) {
            sleep(1600);
          }
        }
        vlc_count_decoded(1);
      }
    }

    void vlc_render_loop(int id) {
      int rendered = 0;
      while (rendered < )" + std::to_string(frames) + R"() {
        int frame = vlc_pop(0);
        if (frame != 0) {
          int acc = frame;
          for (int k = 0; k < 250; k = k + 1) {
            acc = acc * 69621 + k;
          }
          int dropped = vlc_osd_update(rendered);
          rendered = rendered + 1;
          if ((rendered & 1) == 0) {
            vlc_vsync_wait(id);
          }
          if ((rendered & 7) == 0) {
            vlc_osd_reset(0);
          }
          if ((rendered & 15) == 1) {
            vlc_stats_overlay(0);
          }
        }
        if (frame == 0) {
          sleep(1600);
        }
      }
    }

    void vlc_worker(int id) {
      if ((id & 1) == 0) {
        vlc_decoder_loop(id);
      }
      if ((id & 1) == 1) {
        vlc_render_loop(id);
      }
    }
  )");
}

}  // namespace

App MakeVlc(const LoadScale& scale) {
  // Pair decoders with renderers; an even worker count keeps the FIFO
  // balanced so the run terminates.
  const int workers = scale.workers + (scale.workers & 1);
  return AssembleApp("VLC", VlcSource(scale), "vlc_worker", workers, {}, 400'000'000,
                     scale.frontend);
}

}  // namespace apps
}  // namespace kivati
