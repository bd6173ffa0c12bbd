// Compliant: a pipeline runs its stages through the stage functions.
namespace dpz {

void run_stages(Matrix& blocks, Matrix& scores, const QuantizerConfig& q,
                const BlockLayout& layout, const Shape& shape) {
  dct_rows(blocks);
  const auto s3 = detail::stage3_forward(scores, q);
  const FloatArray out = detail::stage1_inverse<float>(blocks, layout, shape);
}

}  // namespace dpz
