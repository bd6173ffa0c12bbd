// Boundary: src/dsp/ implements the transforms, so its own forward and
// inverse member calls are not a second Stage 1 (single-stage).
namespace dpz {

void DctPlan::inverse(std::span<const double> in,
                      std::span<double> out) const {
  fft_.inverse(in, out);
}

}  // namespace dpz
