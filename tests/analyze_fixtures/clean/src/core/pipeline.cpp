// Compliant: a pipeline runs its stages through the stage functions.
namespace dpz {

void run_stages(Matrix& blocks, Matrix& scores, const QuantizerConfig& q) {
  dct_rows(blocks);
  const auto s3 = detail::stage3_forward(scores, q);
  idct_rows(blocks);
}

}  // namespace dpz
