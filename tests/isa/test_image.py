"""Every image is immutable and is its own identity.

Assembler output, the engine's memoized images, the standard stub
binaries, the loader's startup shim and libc all refuse writes to
``data`` and ``symbols``, and hash and compare by identity, so one
image can serve every machine and key every cache.
"""

import dataclasses

import pytest

from repro.core.engine import EngineCache
from repro.core.hth import stub_binary
from repro.isa.assembler import assemble
from repro.kernel.loader import _make_shim
from repro.programs.libc import libc_image

SOURCE = """
.data
msg: .asciz "hi"
.text
main:
    mov eax, 0
    ret
"""

MAKERS = {
    "assembler": lambda: assemble("/bin/t", SOURCE),
    "engine": lambda: EngineCache().image("/bin/t", SOURCE),
    "stub": lambda: stub_binary("/bin/sh"),
    "startup-shim": lambda: _make_shim(0x1000),
    "libc": libc_image,
}


@pytest.fixture(params=sorted(MAKERS))
def image(request):
    return MAKERS[request.param]()


def test_data_is_read_only(image):
    with pytest.raises(TypeError):
        image.data[0] = 1
    with pytest.raises(TypeError):
        del image.data[next(iter(image.data), 0)]


def test_symbols_are_read_only(image):
    with pytest.raises(TypeError):
        image.symbols["planted"] = 4096
    with pytest.raises(TypeError):
        del image.symbols[next(iter(image.symbols), "main")]


def test_an_image_is_its_own_identity(image):
    twin = dataclasses.replace(image)
    assert twin.text is image.text and dict(twin.data) == dict(image.data)
    assert twin != image and image == image
    assert len({image, twin, image}) == 2


def test_construction_copies_the_callers_containers():
    data, symbols = {10: 1}, {"main": 0}
    image = dataclasses.replace(
        assemble("/bin/t", SOURCE), data=data, symbols=symbols
    )
    data[10], symbols["main"] = 2, 5
    assert image.data[10] == 1 and image.symbols["main"] == 0


def test_the_memoized_images_are_shared():
    engine = EngineCache()
    assert engine.image("/bin/t", SOURCE) is engine.image("/bin/t", SOURCE)
    assert stub_binary("/bin/sh") is stub_binary("/bin/sh")
