"""Chunk-wise streaming Conformer encoder inference with masked batching.

The package decodes long or batched audio as equal-sized chunks processed
along the batch axis: relative right-context attention and cached left
contexts keep chunk outputs exactly equal to a full-sequence run, masks keep
variable-length audios from paying for padding, and greedy CTC turns hidden
frames into text. Reference implementations and an analytic cost model verify
the fast path.
"""

from .config import (ConfigError, ContextConfig, ModelConfig, derive_l_conv,
                     derive_r_rel, load_config, required_lookahead, validate)
from .frontend import (FeatureMatrix, PcmAudio, compute_fbank, load_features,
                       read_wav, save_features)
from .chunking import (ChunkBatch, ChunkPlan, StreamState, carve_chunks,
                       oct_segment, schedule_step)
from .attention import (AttentionParams, RelPosTable, build_rel_pos_table,
                        chunk_attention, masked_softmax, rel_pos_encoding)
from .conv import ConvParams, chunk_depthwise_conv, conv_module_forward
from .encoder import (EncoderWeights, encode_full, encode_step, init_model,
                      init_weights, load_checkpoint, save_checkpoint)
from .ctc import CtcHead, Vocab, default_vocab, greedy_decode, project_logits
from .oracle import (dense_attention_reference, full_context_encode,
                     loop_oct_encode)
from .costmodel import attention_flops, batch_cost, memory_estimate

__version__ = "0.1.0"
