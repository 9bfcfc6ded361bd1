"""Golden images and the once-per-process runtime build.

The runtime library is compiled once per process and linked into every
image, so these tests pin what that must not change: the exact bytes of
every dataset image, the errors raised when a program collides with a
runtime symbol, and that the shared runtime is neither rebuilt nor
mutated by later compiles.
"""

import pytest

from repro.bombs import get_bomb
from repro.bombs.suite import ALL_BOMB_IDS, _compile_bomb
from repro.errors import CompileError, LinkError
from repro.lang import compile_single
from repro.lang import compiler
from repro.service import image_digest

#: ``image_digest`` of every dataset image.  A change here means the
#: compiler, assembler, linker or runtime emits different bytes, which
#: invalidates every cached cell and lift keyed by image digest.
GOLDEN_DIGESTS = {
    "sv_time": "f4fa619fa54bf5220c72cdc49e747d4e8b0ab92e00cf0d173673e4f0a654ec0a",
    "sv_web": "6a9813a27f58f9869de6fedd2f121ab797c0d37d6e68d1cbfe3b36f1d192f57f",
    "sv_syscall": "3fb60bdea00ccc0c6e6a455994c0c2b1100a2b69c405a09efe467291ae94a40d",
    "sv_arglen": "d6d1d15fe44861b43c932fb35d60ec9a065e5b04dcf2ecb86748f647781b98d8",
    "cp_stack": "7450fc918af6a83b33d6ef073ee399fd840e1f518ce1a8b848a853f2f9514a62",
    "cp_file": "2ea904c4745a2857de68643636eaa977848cc5497dce00b61a5e292d99be23c3",
    "cp_syscall": "28bf09d54979afcb534e57bd4c33788955f4f0b50480baa37588667ed4b13e13",
    "cp_exception": "380402dc296aadf5581f8818485e2df979f9e849511a624f62d056ccdc94e960",
    "cp_file_exception": "4826d41a4bc84a6ef10d0c716428e583c024a2e5d6ce3e12504f63a40d84c48c",
    "pp_pthread": "71f952a7daa2f86878da52a90c0c777f6769b0f71289c32f307aa2f3f6a08801",
    "pp_fork_pipe": "9ce07b10659c11786b33f77d907d7ec88a8eb5e8f8bb1375f5e7adb3081aedc8",
    "sa_l1_array": "71dc2c2ad23223ab7640e065546cfa85adc20f93c7b38faafdd02d47a99b2550",
    "sa_l2_array": "dbe811b71146b3900c4b8f4c6d91f5a4dcb29d692cc4255d50bef9a5cde01da9",
    "cs_file_name": "8fb17de066d47b8126aefed54364d0a31afa48dfea2d6c22b4d4e27b5b114fb2",
    "cs_syscall_name": "ab957d7f7e023652a2841ccaa28b81d9b20253135de16f74d6998b44a3a38d15",
    "sj_jump": "2d6cf596e18ab00da258b34132cb874fb4126c7c1b6500e23b4692e813b0fb4d",
    "sj_jump_array": "abcc12f8c088e9a419670cd407d67c4fbcc8c620c67fdf059fc45875b08bd3c9",
    "fp_float": "ed19cb03f7d415007a399afeb39baeaada214984ff2bc92fd2d2e9b8dedaa3d4",
    "ef_sin": "b8162641e786f5d88de4c44621ae8084a74d187c3c40f5bf0db08705541d3b5d",
    "ef_srand": "95180916968d6c914c6e4ff27fea1debd4d0c8b0e4cded1e0506d45fda37d667",
    "cf_sha1": "84e64da0414b09d55d0630395a3b9246eda98acb4dd7faff433352d1e207a3a7",
    "cf_aes": "fcb7a52ef81092fc9b19994f433e2ba101902cf2ba43a520eb379765af10e206",
    "neg_square": "c2d4d1a47ef93f08a3eb2546edac33a2d787b99b8575cda3c306dc6d8106170e",
    "fig3_printf_on": "49538b5efb5ac8d9c3ea67a84a7e899a5dce2933bc8c78c111c5b83d3d0b2696",
    "fig3_printf_off": "d10bb525e216a99e4312871c91fd048d104951b8291d222b625651db09e73102",
    "ext_loop": "3314d4e8775f6795dcb271e1eb6b0cc57dea13ecb0b150f73ed23dc93f717cb8",
    "ext_stdin": "7a552027a8ac1a9b2e2c2933dcc932a3eba5adb9e8538527d4c7780086f08931",
    "ext_xor_cipher": "1506042b0dd60e45cddfec4a9b9335cdd26d8e034eeea3a456ebc0cfbd9c050d",
    "ext_two_args": "c944eeb5a5011136902e5556b26c25a4abc1a32efecadc2448bad56c567d5d14",
    "ext_combo": "ede4ba1f7d68a4ce9097cb845298252f3dc71b465a6efd222cf256a0e9283508",
}


def test_golden_covers_every_program():
    assert set(GOLDEN_DIGESTS) == set(ALL_BOMB_IDS)


@pytest.mark.parametrize("bomb_id", ALL_BOMB_IDS)
def test_image_digest_is_pinned(bomb_id):
    assert image_digest(get_bomb(bomb_id).image) == GOLDEN_DIGESTS[bomb_id]


class TestRuntimeCollisions:
    def test_user_function_redefining_runtime_function(self):
        with pytest.raises(CompileError, match="duplicate function 'strlen'"):
            compile_single("int strlen(char *s) { return 0; }\n"
                           "int main() { return 0; }")

    def test_user_global_named_like_runtime_function(self):
        with pytest.raises(LinkError, match="duplicate symbol 'strlen'"):
            compile_single("int strlen;\nint main() { return 0; }")

    def test_user_global_redefining_runtime_global(self):
        with pytest.raises(CompileError, match="duplicate global 'rand_state'"):
            compile_single("int rand_state;\nint main() { return 0; }")


class TestRuntimeBuiltOnce:
    def test_second_program_parses_only_its_own_unit(self, monkeypatch):
        compile_single("int main() { return 1; }", "first.bc")
        parsed = []
        real_parse = compiler.parse

        def counting_parse(text, unit_name="<bc>"):
            parsed.append(unit_name)
            return real_parse(text, unit_name)

        monkeypatch.setattr(compiler, "parse", counting_parse)
        compile_single("int main() { return strlen(\"ab\"); }", "second.bc")
        assert parsed == ["second.bc"]

    def test_shared_runtime_is_never_mutated(self):
        first = compile_single("int main() { return 7; }", "first.bc")
        before = first.to_bytes()
        built = compiler._runtime()
        info, modules = built
        functions, globals_ = dict(info.functions), dict(info.globals)
        sections = [{k: bytes(v) for k, v in m.sections.items()} for m in modules]

        compile_single("int g; int main() { g = atoi(\"3\"); return g; }")
        _compile_bomb.__wrapped__("sj_jump")  # raw asm modules, uncached
        _compile_bomb.__wrapped__("cf_aes")

        assert first.to_bytes() == before
        assert compile_single("int main() { return 7; }", "first.bc").to_bytes() == before
        assert compiler._runtime() is built
        assert info.functions == functions and info.globals == globals_
        assert not info.asm_functions
        assert [{k: bytes(v) for k, v in m.sections.items()}
                for m in modules] == sections
