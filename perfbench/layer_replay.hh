/**
 * @file
 * Per-site replay of one fused encoder-layer step, built only from
 * the library's public kernels, so the benchmark can split a
 * measured forwardStep() into gemm / encode / ops time without any
 * tracing inside the library.
 *
 * The replay walks the same sites in the same order as the fused
 * step (QuantizedTransformer::forwardStep): x encode, Q/K/V GEMMs,
 * per-(sequence, head) attention, the output projection, and the
 * FFN. Each kernel runs unfused (GEMM without epilogue, encode and
 * float operators as separate calls), each is timed as one span,
 * and the attention kernels run phase by phase across all
 * (sequence, head) jobs on the pool, as the step runs them. Bias and
 * residual adds, head gathers and allocation are left untimed: they
 * are the replay's self time.
 */

#ifndef PERFBENCH_LAYER_REPLAY_HH
#define PERFBENCH_LAYER_REPLAY_HH

#include <array>
#include <vector>

#include "model/pipeline.hh"
#include "span_log.hh"

namespace perfbench
{

/** Replays layer @p layer of a served pipeline site by site. */
class LayerReplay
{
  public:
    /**
     * Quantizes the layer's weights exactly as quantizeWeights()
     * does and looks up the pipeline's activation dictionaries.
     * @p model, @p quantizer and @p pipe must outlive the replay.
     */
    LayerReplay(const mokey::Transformer &model,
                const mokey::Quantizer &quantizer,
                const mokey::QuantizedTransformer &pipe,
                size_t layer = 0);

    /**
     * Run the layer once over @p x (rows delimited by @p starts) and
     * append a "replay.step" span whose children are the timed
     * kernels: gemm.<site>, encode.<tensor> and ops.<op>. GEMM spans
     * carry rows/n/k, the engine (0 mag, 1 count) and the bytes the
     * engine streams, computed from tensor sizes.
     */
    void run(const mokey::Tensor &x, const std::vector<size_t> &starts,
             SpanLog &log) const;

    /** Bytes of the layer's pinned weight planes and sidecars. */
    size_t weightPlaneBytes() const;

  private:
    struct Site
    {
        mokey::QuantizedTensor w;
        mokey::GemmConstants constants;
        const std::vector<float> *bias = nullptr;
    };

    const mokey::ModelConfig cfg;
    const mokey::Quantizer &quantizer;
    std::array<Site, mokey::kGraphSiteCount> sites;
    const mokey::TensorDictionary *dx, *dq, *dk, *dv, *dp, *dctx,
        *dmidIn, *dmid;
};

} // namespace perfbench

#endif // PERFBENCH_LAYER_REPLAY_HH
