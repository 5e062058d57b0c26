// A planted library for kernel_isa_check's self-test (tools/CMakeLists.txt):
// one function outside fae::tiles::avx512 that uses a zmm register, one
// carry-less multiply outside Crc32's fold and one fused multiply-add.
// The guard must fail on it, naming all three. The instructions are inline
// assembly, so the plants do not depend on what the compiler would emit;
// nothing calls these functions.

namespace fae_isa_fixture {

void PlantedZmm() { asm volatile("vxorps %%zmm0, %%zmm0, %%zmm0" ::: "xmm0"); }

void PlantedClmul() {
  asm volatile("pclmulqdq $0, %%xmm1, %%xmm0" ::: "xmm0");
}

void PlantedFma() {
  asm volatile("vfmadd231ps %%xmm2, %%xmm1, %%xmm0" ::: "xmm0");
}

}  // namespace fae_isa_fixture
