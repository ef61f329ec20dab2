"""maecodec: a variable-rate learned image codec.

A single shared convolutional autoencoder serves every rate-distortion
tradeoff in a discrete set; small tradeoff-conditioned perceptrons
modulate its feature maps channel-wise.  The package contains everything
needed to train the codec on CPU and produce real decodable bitstreams:
a numpy-backed reverse-mode autodiff engine, GDN/IGDN layers, a learned
factorized entropy model, a byte-wise range coder, the training loop,
and evaluation metrics.
"""

from . import tensor
from .checkpoint import Checkpoint, model_from_checkpoint
from .codec import (LoadedCodec, RdPoint, compress, compress_image, decompress,
                    decompress_image, feature_ratio, rd_curve, write_rd_csv)
from .entropy import (CdfTable, FactorizedDensity, add_uniform_noise, bin_probabilities,
                      build_cdf_tables, choose_support, init_density, quantize,
                      rate_bits)
from .exceptions import (BitstreamError, CheckpointError, CodingError,
                         ContractViolation, DatasetError, MaecodecError,
                         ModelHashMismatch, NumericDomainError, SupportRangeError)
from .gdn import gdn_forward, igdn_forward
from .gradcheck import grad_check
from .metrics import ms_ssim, ms_ssim_db, psnr
from .network import CodecConfig, CodecModel, TradeoffSet, param_count, parameter_table
from .rangecoder import Bitstream, pack, rc_decode, rc_encode, unpack
from .tensor import GradientTape, Tensor
from .training import (Adam, TrainingConfig, load_dataset, load_training_config, next_batch,
                       rd_terms, sample_tradeoff, snapshot, train)

__version__ = "0.1.0"
